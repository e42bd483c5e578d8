// Unit tests of the benchmark's own logic: percentile and sample-count
// reporting, the metric-name and unit charsets, the result line, and
// seed determinism of the generated inputs.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "inputs.h"
#include "metrics.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
      ++failures;                                                      \
    }                                                                  \
  } while (false)

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void test_percentiles() {
  using popsbench::percentile;
  EXPECT(percentile(one_to(1000), 500) == 500);
  EXPECT(percentile(one_to(1000), 990) == 990);
  EXPECT(percentile(one_to(1001), 990) == 991);  // rank ceil(990.99)
  EXPECT(percentile(one_to(1), 990) == 1);
  EXPECT(percentile(one_to(10), 1000) == 10);
  EXPECT(popsbench::median(one_to(5)) == 3);
  EXPECT(popsbench::median(one_to(4)) == 2);  // nearest rank, no averaging
}

void test_tail_sample_counts() {
  using popsbench::samples_beyond;
  using popsbench::tail_resolved;
  EXPECT(samples_beyond(1000, 990) == 10);
  EXPECT(samples_beyond(999, 990) == 9);
  EXPECT(samples_beyond(0, 990) == -1);
  EXPECT(tail_resolved(1000, 990));
  EXPECT(!tail_resolved(999, 990));
  EXPECT(!tail_resolved(0, 990));
  EXPECT(tail_resolved(20, 500));
  EXPECT(!tail_resolved(19, 500));
}

void test_metric_names_and_units() {
  using popsbench::valid_metric_name;
  using popsbench::valid_unit;
  EXPECT(valid_metric_name("ops_per_s"));
  EXPECT(valid_metric_name("graph.color_hq_us"));
  EXPECT(valid_metric_name("9lives-x"));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_leading"));
  EXPECT(!valid_metric_name(".leading"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("quote\""));
  EXPECT(!valid_metric_name("slash/no"));
  EXPECT(valid_unit("1/s"));
  EXPECT(valid_unit("%"));
  EXPECT(valid_unit("us"));
  EXPECT(!valid_unit(""));
  EXPECT(!valid_unit("µs"));
  EXPECT(!valid_unit(std::string(17, 's')));
}

void test_report() {
  popsbench::Report report;
  EXPECT(report.add("ops_per_s", 1234.5, "1/s"));
  EXPECT(report.add("setup_s", 0.000123456789012345, "s"));
  EXPECT(!report.add("ops_per_s", 1, "1/s"));  // repeated name
  EXPECT(!report.add("bad name", 1, "s"));
  EXPECT(!report.add("nan_value", std::numeric_limits<double>::quiet_NaN(),
                     "s"));
  EXPECT(report.metrics().size() == 2);
  const std::string json = report.to_json(true, 7, 0);
  EXPECT(json ==
         "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": "
         "{\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, "
         "\"setup_s\": {\"value\": 0.00012345678901234499, \"unit\": "
         "\"s\"}}}");
}

void test_trimmed_mean() {
  using popsbench::trimmed_mean;
  // Ten values: the lowest two and highest two are dropped.
  EXPECT(trimmed_mean({1, 2, 3, 4, 5, 6, 7, 8, 1000, -1000}) == 4.5);
  // Fewer than five values keep them all.
  EXPECT(trimmed_mean({1, 2, 6}) == 3);
  // A mix of two levels moves with the share of each.
  EXPECT(trimmed_mean({1, 1, 1, 1, 1, 2, 2, 2, 2, 2}) == 1.5);
}

void test_stretch_slices() {
  popsbench::Stretch stretch(10.0, 5);  // slices of 2 s
  for (int i = 0; i < 5; ++i) {
    stretch.add_ops(2.0 * i + 0.5, 100 * (i + 1));
    for (int k = 1; k <= 1000; ++k) stretch.add_call(2.0 * i + 1.0, k);
  }
  stretch.add_ops(10.5, 99999);         // past the deadline: totals only
  stretch.add_call(10.5, 1e9);
  EXPECT(stretch.total_ops() == 1500 + 99999);
  EXPECT(stretch.total_calls() == 5001);
  EXPECT(stretch.call_samples() == 5000);
  EXPECT(stretch.min_slice_samples() == 1000);
  EXPECT(stretch.tail_resolved(990));
  EXPECT(!stretch.tail_resolved(995));  // 5 beyond the p99.5 of 1000
  // Slice rates 50..250/s; the trimmed mean drops the ends: 150.
  EXPECT(stretch.rate() == 150);
  EXPECT(stretch.slice_percentile(500) == 500);
  EXPECT(stretch.slice_percentile(990) == 990);
  popsbench::Stretch sparse(10.0, 5);
  for (int k = 0; k < 5000; ++k) sparse.add_call(0.1, k);  // one slice only
  EXPECT(!sparse.tail_resolved(990));
}

void test_tracer() {
  popsbench::Tracer tracer(16);
  const int op = tracer.record("op", -1, 3, 100, 900);
  tracer.record("graph.color_h", op, 3, 200, 450);
  tracer.record("graph.color_h", op, 3, 500, 750);
  EXPECT(tracer.count("graph.color_h") == 2);
  EXPECT(tracer.total_us("graph.color_h") == 0.5);
  EXPECT(tracer.spans()[1].parent == op);
  EXPECT(tracer.spans()[1].op == 3);
  EXPECT(!tracer.nearly_full(13));
  EXPECT(tracer.nearly_full(14));
  tracer.clear();
  EXPECT(tracer.count("op") == 0);
}

void test_seed_determinism() {
  const pops::Topology wide(8, 64);
  const pops::Topology deep(256, 8);
  for (const auto mix : {popsbench::PoolMix::kRandomAndBlocks,
                         popsbench::PoolMix::kRandomAndRotations}) {
    const pops::Topology& topo =
        mix == popsbench::PoolMix::kRandomAndBlocks ? wide : deep;
    const auto a = popsbench::make_perm_pool(topo, mix, 64, 7);
    const auto b = popsbench::make_perm_pool(topo, mix, 64, 7);
    const auto c = popsbench::make_perm_pool(topo, mix, 64, 8);
    EXPECT(a.size() == 64);
    EXPECT(popsbench::fingerprint(a) == popsbench::fingerprint(b));
    EXPECT(popsbench::fingerprint(a) != popsbench::fingerprint(c));
    // Pool entries are pairwise distinct.
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = i + 1; j < a.size(); ++j) {
        EXPECT(a[i].images() != a[j].images());
      }
    }
  }
  const pops::Topology serve(16, 8);
  const auto s1 = popsbench::make_zipf_stream(serve, 4096, 7);
  const auto s2 = popsbench::make_zipf_stream(serve, 4096, 7);
  const auto s3 = popsbench::make_zipf_stream(serve, 4096, 8);
  EXPECT(s1.size() == 4096);
  EXPECT(s1 == s2);
  EXPECT(popsbench::fingerprint(s1) == popsbench::fingerprint(s2));
  EXPECT(popsbench::fingerprint(s1) != popsbench::fingerprint(s3));
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_sample_counts();
  test_metric_names_and_units();
  test_report();
  test_trimmed_mean();
  test_stretch_slices();
  test_tracer();
  test_seed_determinism();
  if (failures == 0) std::printf("popsbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
