// fablint fixture: numerical nondeterminism in the load generator (this
// file lives under a load/ directory, which scopes the `load-numeric`
// rule).  <random> distributions are implementation-defined across
// standard libraries, and libm transcendentals may differ at the last
// ulp between platforms; either one makes the same seed draw different
// arrival times on different machines.
#include <cmath>
#include <cstdint>
#include <random>  // EXPECT: load-numeric

namespace fixture {

template <typename Gen>
double poisson_gap(Gen& gen, double mean_ns) {
  std::exponential_distribution<double> d(1.0 / mean_ns);  // EXPECT: load-numeric
  return d(gen);
}

double diurnal_rate(double base, double phase) {
  return base * (1.0 + std::sin(phase));  // EXPECT: load-numeric
}

double inverse_cdf(double u, double mean) {
  return -mean * log(1.0 - u);  // EXPECT: load-numeric
}

double ramp(double t) { return std::exp2f(static_cast<float>(t)); }  // EXPECT: load-numeric

}  // namespace fixture
