#include "verdicts.h"

#include <cstdlib>
#include <sstream>

namespace e2e {

namespace {

std::string first_token(const std::string& line) {
  return line.substr(0, line.find(' '));
}

/// Value of ` key=` up to the next space; nullopt when absent.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

}  // namespace

std::map<std::string, std::string> parse_verdict_lines(
    const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[first_token(line)] = line;
  }
  return out;
}

VerdictDiff diff_verdicts(const std::map<std::string, std::string>& reference,
                          const std::vector<std::string>& observed) {
  VerdictDiff diff;
  for (const std::string& line : observed) {
    ++diff.compared;
    const std::string name = first_token(line);
    const auto it = reference.find(name);
    if (it != reference.end() && it->second == line) continue;
    ++diff.mismatched;
    diff.details.push_back(
        name + ": " + (it == reference.end() ? "<no reference>" : it->second) +
        " | " + line);
  }
  return diff;
}

std::optional<Certificate> parse_certificate(const std::string& line) {
  Certificate cert;
  cert.name = first_token(line);
  const auto status = field(line, "status");
  const auto kind = field(line, "template");
  const auto level = field(line, "level");
  const auto coeffs = field(line, "coeffs");
  if (cert.name.empty() || !status || !kind || !level || !coeffs) {
    return std::nullopt;
  }
  cert.status = *status;
  cert.template_kind = *kind;
  if (!parse_double(*level, cert.level)) return std::nullopt;
  const std::string& list = *coeffs;
  if (list.size() < 2 || list.front() != '[' || list.back() != ']') {
    return std::nullopt;
  }
  std::istringstream items(list.substr(1, list.size() - 2));
  std::string item;
  while (std::getline(items, item, ',')) {
    double value = 0.0;
    if (!parse_double(item, value)) return std::nullopt;
    cert.coeffs.push_back(value);
  }
  return cert;
}

}  // namespace e2e
