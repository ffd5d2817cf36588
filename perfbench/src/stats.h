#ifndef ZEROTUNE_PERFBENCH_STATS_H_
#define ZEROTUNE_PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall time in nanoseconds (steady clock).
int64_t NowNanos();
/// CPU time of this process / thread in nanoseconds. Under a hypervisor
/// that accounts stolen time, neither counts time the CPU was taken away.
int64_t ProcessCpuNanos();
int64_t ThreadCpuNanos();
double MillisBetween(int64_t start_nanos, int64_t end_nanos);

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when
/// empty. Copies, so callers may pass unsorted data.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Geometric mean of strictly positive values; 1 when empty.
double GeoMean(const std::vector<double>& values);

/// Peak resident set size of this process and of its reaped children,
/// whichever is larger, in MiB.
double PeakRssMb();

/// 64-bit FNV-1a, used to fingerprint model files.
uint64_t Fnv1a(const std::string& bytes);

/// One reported metric: value plus unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table; the name order is the print order.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& entries() const { return entries_; }

 private:
  std::map<std::string, Metric> entries_;
};

/// JSON number with every digit of the double (non-finite values map to
/// null, which the runner rejects).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // ZEROTUNE_PERFBENCH_STATS_H_
