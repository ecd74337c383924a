#include "src/core/report.h"

#include <ostream>
#include <sstream>

namespace bcert::core {

namespace {

void write_vector_json(std::ostream& os, const linalg::Vector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i];
  }
  os << ']';
}

void write_rect_json(std::ostream& os, const Rect& r) {
  os << "{\"lo\": ";
  write_vector_json(os, r.lo);
  os << ", \"hi\": ";
  write_vector_json(os, r.hi);
  os << '}';
}

}  // namespace

std::string json_escape(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(hex[u >> 4]);
          out.push_back(hex[u & 0xf]);
        } else {
          out.push_back(c);
        }
        break;
      }
    }
  }
  return out;
}

void write_text_report(std::ostream& os, const VerifyResult& result,
                       const BarrierProblem& problem,
                       const ReportContext& ctx) {
  os << "=== barrier-certificate verification report ===\n";
  os << "system      : " << ctx.system_name << '\n';
  if (!ctx.controller_description.empty()) {
    os << "controller  : " << ctx.controller_description << '\n';
  }
  os << "verdict     : " << verify_status_name(result.status) << '\n';
  os << "gamma/delta : " << ctx.gamma << " / " << ctx.delta << "\n\n";

  os << "-- regions --\n";
  os << "X0 lo " << problem.initial_set.lo << " hi "
     << problem.initial_set.hi << '\n';
  os << "safe lo " << problem.safe_rect.lo << " hi " << problem.safe_rect.hi
     << "  (U = complement)\n\n";

  if (result.has_generator()) {
    os << "-- certificate --\n";
    if (result.generator) {
      os << "W coefficients (basis x_i x_j, i<=j): "
         << result.generator->coeffs() << '\n';
    } else {
      os << "W coefficients (monomial basis, "
         << result.poly_generator->basis().size()
         << " terms): " << result.poly_generator->coeffs() << '\n';
    }
    if (result.safe()) {
      os << "level l = " << result.level << '\n';
      os << "B(x) = W(x) - l satisfies conditions (1)-(3) of the strict\n";
      os << "barrier certificate definition: the system is SAFE for\n";
      os << "unbounded time.\n";
    }
    os << '\n';
  }

  os << "-- procedure --\n";
  os << "candidate iterations : " << result.timings.candidate_iterations
     << '\n';
  os << "LP solves            : " << result.timings.lp_solves << " ("
     << result.timings.lp_time_s << " s)\n";
  os << "SMT (5) queries      : " << result.timings.smt5_queries << " ("
     << result.timings.smt5_time_s << " s)\n";
  os << "final LP margin      : " << result.lp_margin << '\n';
  if (!result.counterexamples.empty()) {
    os << "counterexamples      :\n";
    for (const auto& cex : result.counterexamples) {
      os << "  " << cex << '\n';
    }
  }
  os << "\n-- timing (Table-1 columns) --\n";
  os << "generator total : " << result.timings.generator_time_s << " s\n";
  os << "level-set phase : " << result.timings.level_set_time_s << " s\n";
  os << "other           : " << result.timings.other_time_s() << " s\n";
  os << "total           : " << result.timings.total_time_s << " s\n";
}

void write_json_report(std::ostream& os, const VerifyResult& result,
                       const BarrierProblem& problem,
                       const ReportContext& ctx) {
  os.precision(17);
  os << "{\n";
  os << "  \"system\": \"" << json_escape(ctx.system_name) << "\",\n";
  os << "  \"controller\": \"" << json_escape(ctx.controller_description)
     << "\",\n";
  os << "  \"verdict\": \"" << verify_status_name(result.status) << "\",\n";
  os << "  \"safe\": " << (result.safe() ? "true" : "false") << ",\n";
  os << "  \"gamma\": " << ctx.gamma << ",\n";
  os << "  \"delta\": " << ctx.delta << ",\n";
  os << "  \"initial_set\": ";
  write_rect_json(os, problem.initial_set);
  os << ",\n  \"safe_rect\": ";
  write_rect_json(os, problem.safe_rect);
  os << ",\n";
  os << "  \"template\": \"" << template_kind_name(result.template_kind)
     << "\",\n";
  if (result.has_generator()) {
    os << "  \"generator_coeffs\": ";
    write_vector_json(os, result.generator_coeffs());
    os << ",\n";
  }
  os << "  \"level\": " << result.level << ",\n";
  os << "  \"lp_margin\": " << result.lp_margin << ",\n";
  os << "  \"counterexamples\": [";
  for (std::size_t i = 0; i < result.counterexamples.size(); ++i) {
    if (i) os << ", ";
    write_vector_json(os, result.counterexamples[i]);
  }
  os << "],\n";
  const VerifyTimings& t = result.timings;
  os << "  \"timings\": {\n";
  os << "    \"candidate_iterations\": " << t.candidate_iterations << ",\n";
  os << "    \"lp_solves\": " << t.lp_solves << ",\n";
  os << "    \"lp_time_s\": " << t.lp_time_s << ",\n";
  os << "    \"smt5_queries\": " << t.smt5_queries << ",\n";
  os << "    \"smt5_time_s\": " << t.smt5_time_s << ",\n";
  os << "    \"generator_time_s\": " << t.generator_time_s << ",\n";
  os << "    \"level_set_time_s\": " << t.level_set_time_s << ",\n";
  os << "    \"other_time_s\": " << t.other_time_s() << ",\n";
  os << "    \"total_time_s\": " << t.total_time_s << "\n";
  os << "  }\n}\n";
}

std::string json_report(const VerifyResult& result,
                        const BarrierProblem& problem,
                        const ReportContext& context) {
  std::ostringstream os;
  write_json_report(os, result, problem, context);
  return os.str();
}

void write_result_json(std::ostream& os, const VerifyResult& result) {
  os.precision(17);
  os << "{\"verdict\": \"" << verify_status_name(result.status) << "\", ";
  os << "\"safe\": " << (result.safe() ? "true" : "false") << ", ";
  os << "\"template\": \"" << template_kind_name(result.template_kind)
     << "\", ";
  if (result.has_generator()) {
    os << "\"generator_coeffs\": ";
    write_vector_json(os, result.generator_coeffs());
    os << ", ";
  }
  os << "\"level\": " << result.level << ", ";
  os << "\"lp_margin\": " << result.lp_margin << ", ";
  os << "\"counterexamples\": " << result.counterexamples.size() << ", ";
  os << "\"error\": {\"code\": \"" << error_code_name(result.error.code)
     << "\", \"message\": \"" << json_escape(result.error.message)
     << "\"}, ";
  const DegradationReport& d = result.degradation;
  os << "\"degradation\": {\"jit_to_tape\": " << d.jit_to_tape
     << ", \"tape_to_tree\": " << d.tape_to_tree
     << ", \"cache_cold\": " << d.cache_cold << ", \"lp_cold\": " << d.lp_cold
     << ", \"retries\": " << d.retries << "}, ";
  const VerifyTimings& t = result.timings;
  os << "\"candidate_iterations\": " << t.candidate_iterations << ", ";
  os << "\"lp_time_s\": " << t.lp_time_s << ", ";
  os << "\"smt5_time_s\": " << t.smt5_time_s << ", ";
  os << "\"total_time_s\": " << t.total_time_s << "}";
}

std::string result_json(const VerifyResult& result) {
  std::ostringstream os;
  write_result_json(os, result);
  return os.str();
}

}  // namespace bcert::core
