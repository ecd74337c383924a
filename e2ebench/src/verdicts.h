#pragma once
/// \file verdicts.h
/// \brief Verdict lines: the committed one-worker reference, the diff a
/// timed run makes against it, and the certificate a line carries.
///
/// A verdict line is `daemon::verdict_line(name, result)`: the scenario
/// name, then `key=value` fields (status, template, level, LP margin,
/// counterexample count, coefficients at %.17g). Two runs gave the same
/// answer iff their lines are equal.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// Lines keyed by scenario name (the first token). Blank lines and
/// lines starting with '#' are skipped.
std::map<std::string, std::string> parse_verdict_lines(const std::string& text);

/// Outcome of comparing observed lines with the reference.
struct VerdictDiff {
  std::size_t compared = 0;    ///< observed lines
  std::size_t mismatched = 0;  ///< differ from, or are absent in, the reference
  std::vector<std::string> details;  ///< one "name: expected | observed" each
};

/// Compares each observed line with the reference line of its scenario.
/// An observed scenario without a reference line counts as a mismatch.
VerdictDiff diff_verdicts(const std::map<std::string, std::string>& reference,
                          const std::vector<std::string>& observed);

/// The certificate a verdict line states.
struct Certificate {
  std::string name;
  std::string status;
  std::string template_kind;
  double level = 0.0;
  std::vector<double> coeffs;
};

/// Parses a verdict line; nullopt when a field is missing or malformed.
std::optional<Certificate> parse_certificate(const std::string& line);

}  // namespace e2e
