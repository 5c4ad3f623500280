// fablint fixture: good twin of load_numeric_bad.cpp.  Draws come from a
// seeded stream and shapes are piecewise arithmetic (a triangle wave,
// not a sinusoid); names that merely look like libm calls must pass.
// Zero findings expected.
#include <cmath>
#include <cstdint>

namespace fixture {

struct Rng {  // stand-in for common/rng.hpp
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  double next_double() {
    state = state * 6364136223846793005ull + 1;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
};

struct Histogram {
  void log(double) {}
};

// A triangle wave over one period: rises to 1 at the midpoint.  Prose
// that names std::sin(x) or #include <random> is not code.
double diurnal_rate(double base, double phase) {
  const double frac = phase - static_cast<double>(static_cast<long>(phase));
  const double tri = frac < 0.5 ? 2.0 * frac : 2.0 * (1.0 - frac);
  return base * (0.5 + tri);
}

// A project function of that name is a declaration, not a libm call.
double exp(double x) { return x * 2.0; }

double zipf_weight(std::uint64_t rank, double s, Histogram& h) {
  h.log(static_cast<double>(rank));
  const char* label = "log(rank)";
  (void)label;
  return std::pow(static_cast<double>(rank + 1), -s) + std::sqrt(s);
}

}  // namespace fixture
