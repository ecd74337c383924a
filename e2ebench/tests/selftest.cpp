// Tests of the benchmark's own logic: the order statistics, the verdict
// diff and the span accounting the traced run reports.
#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"
#include "verdicts.h"

namespace e2e {
namespace {

TEST(Stats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const auto five = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five[0], 1.5);
  EXPECT_DOUBLE_EQ(five[1], 4.0);
  EXPECT_DOUBLE_EQ(five[2], 12.0);
}

TEST(Stats, IqrShareIsSpreadOverMedian) {
  EXPECT_DOUBLE_EQ(iqr_share({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(iqr_share({5, 5, 5, 5}), 0.0);
}

TEST(Verdicts, DiffFlagsChangedAndUnknownScenarios) {
  const auto reference = parse_verdict_lines(
      "# comment\n"
      "acc-s1-0 status=SAFE template=quadratic level=1 coeffs=[1,2,3]\n"
      "\n"
      "acc-s1-5 status=SAFE template=quadratic level=2 coeffs=[4,5,6]\n");
  ASSERT_EQ(reference.size(), 2u);
  const VerdictDiff diff = diff_verdicts(
      reference,
      {"acc-s1-5 status=SAFE template=quadratic level=2 coeffs=[4,5,6]",
       "acc-s1-0 status=no-conclusion(solver-budget) template=quadratic "
       "level=0 coeffs=[]",
       "acc-s1-9 status=SAFE template=quadratic level=2 coeffs=[4,5,6]"});
  EXPECT_EQ(diff.compared, 3u);
  EXPECT_EQ(diff.mismatched, 2u);
  ASSERT_EQ(diff.details.size(), 2u);
  EXPECT_EQ(diff.details[0].rfind("acc-s1-0: ", 0), 0u);
  EXPECT_NE(diff.details[1].find("<no reference>"), std::string::npos);
}

TEST(Verdicts, CertificateRoundTripsFullPrecision) {
  const auto cert = parse_certificate(
      "dubins-elm-s1-3 status=SAFE template=polynomial "
      "level=0.92030000000000001 lp_margin=0.5 cex=2 "
      "coeffs=[0.10000000000000001,-2.5e-07,3]");
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->name, "dubins-elm-s1-3");
  EXPECT_EQ(cert->status, "SAFE");
  EXPECT_EQ(cert->template_kind, "polynomial");
  EXPECT_EQ(cert->level, 0.9203);
  ASSERT_EQ(cert->coeffs.size(), 3u);
  EXPECT_EQ(cert->coeffs[0], 0.1);
  EXPECT_EQ(cert->coeffs[1], -2.5e-07);
  EXPECT_FALSE(parse_certificate("acc-s1-0 status=SAFE level=x coeffs=[]"));
}

Span span(const char* name, long tid, double start, double end) {
  return Span{name, "core", "", tid, start, end};
}

TEST(Trace, SelfTimeSubtractsDirectChildrenOnTheSameThread) {
  const std::vector<Span> spans = {
      span("job", 1, 0.0, 10.0),
      span("seeding", 1, 0.0, 2.0),
      span("candidate_loop", 1, 2.0, 10.0),
      span("job", 1, 3.0, 7.0),        // foreign job inside a wait
      span("seeding", 1, 3.0, 7.0),
      span("campaign", 2, 0.0, 10.0),  // other thread: not a child
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);  // 8 s minus the nested job's 4 s
  EXPECT_DOUBLE_EQ(self[3], 0.0);
  EXPECT_DOUBLE_EQ(self[4], 4.0);
  EXPECT_DOUBLE_EQ(self[5], 10.0);
}

TEST(Trace, OneJobOpenedInsideAnotherOnOneThreadIsOneNestedJob) {
  const std::vector<Span> spans = {
      span("job", 7, 0.0, 10.0),
      span("job", 7, 4.0, 6.0),   // nested: opens while the first is open
      span("job", 7, 10.0, 12.0), // back to back: not nested
      span("job", 8, 1.0, 5.0),   // other thread, overlapping in time
  };
  EXPECT_EQ(nested_spans(spans), 1u);
  EXPECT_EQ(nested_spans({span("job", 1, 0, 1), span("job", 2, 0, 1)}), 0u);
}

TEST(Trace, ChromeExportHasOneTrackPerThread) {
  const std::string json = chrome_trace_json(
      {span("job", 3, 0.0, 1.0), span("job", 4, 0.5, 1.0)}, "{\"k\":1}");
  EXPECT_NE(json.find("\"otherData\":{\"k\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3,\"ts\":0.000,\"dur\":1000000.000"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"thread 3\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"thread 4\"}"), std::string::npos);
  EXPECT_EQ(json_string("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan s(tracer, "x", "core"); }
  EXPECT_TRUE(tracer.spans().empty());
  Tracer on(true);
  { ScopedSpan s(on, "x", "core", "label"); }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_EQ(on.spans()[0].tid, current_tid());
  EXPECT_GE(on.spans()[0].duration(), 0.0);
}

}  // namespace
}  // namespace e2e
