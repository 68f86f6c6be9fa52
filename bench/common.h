#pragma once
// Shared scaffolding for the experiment harness (bench_e*). Every binary
// prints one or more tables via sim::Table; EXPERIMENTS.md documents the
// paper claim each table validates and the shape expected. The sweep
// benchmarks (bench_kernels, bench_router) also share the forked-child
// measurement harness and the strict flag parser below.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <optional>
#include <string>
#include <type_traits>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "geom/rng.h"
#include "obs/metrics.h"
#include "topology/deployment.h"
#include "topology/distributions.h"
#include "sim/table.h"

namespace thetanet::bench {

inline constexpr double kPi = std::numbers::pi;

/// Fixed seed root: every experiment derives its streams from this, so the
/// whole harness is reproducible.
inline constexpr std::uint64_t kSeedRoot = 0x5eed5eedULL;

/// Uniform deployment in the unit square at the standard "connectivity
/// radius plus margin" density: r = c * sqrt(ln n / n) with c = 1.6 keeps
/// G* connected whp without making it dense.
inline topo::Deployment uniform_deployment(std::size_t n, geom::Rng& rng,
                                           double kappa = 2.0,
                                           double radius_factor = 1.6) {
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = radius_factor * std::sqrt(std::log(static_cast<double>(n)) /
                                          static_cast<double>(n));
  d.kappa = kappa;
  return d;
}

/// Scoped view over the global telemetry registry for benchmark probes:
/// construction zeroes every counter, so a later read returns counts for
/// exactly the probed region. This replaces the ad-hoc SpatialGrid scan
/// statics from the earlier bench plumbing — all kernels now report
/// through obs::MetricsRegistry and every harness reads the same names
/// (catalogue in docs/observability.md).
class TelemetryProbe {
 public:
  TelemetryProbe() { obs::MetricsRegistry::global().reset(); }
  std::uint64_t count(std::string_view name) const {
    return obs::MetricsRegistry::global().counter_value(name);
  }
};

/// Peak resident set size of the calling process in MB (0 where
/// getrusage is unavailable).
inline double peak_rss_mb() {
#if defined(__linux__)
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
#else
  return 0.0;
#endif
}

/// Runs `measure` in a forked child and ships its Payload back over a pipe,
/// so each measurement starts from a pristine allocator and its peak RSS is
/// its own. Inputs are shared copy-on-write. The parent must be pool-free
/// (pinned to one thread) so the child can spawn its own worker pool. Under
/// a budget (`max_rss_mb` > 0) the child's address space is capped far above
/// it (reserve-heavy code maps much more than it touches), so runaway
/// allocation dies with bad_alloc in the child instead of summoning the
/// system OOM killer. Returns nullopt when the child dies or ships a short
/// payload; the caller decides whether to skip or re-run in-process. Where
/// fork is unsupported or pipe/fork fails, runs `measure` in-process.
template <typename Payload, typename Measure>
std::optional<Payload> run_in_child(double max_rss_mb, Measure&& measure) {
  static_assert(std::is_trivially_copyable_v<Payload>);
#if defined(__linux__)
  int fds[2];
  if (pipe(fds) == 0) {
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      if (max_rss_mb > 0.0) {
        const auto cap = static_cast<rlim_t>(
            (max_rss_mb * 4.0 + 4096.0) * 1024.0 * 1024.0);
        rlimit rl{cap, cap};
        setrlimit(RLIMIT_AS, &rl);
      }
      const Payload p = measure();
      const char* src = reinterpret_cast<const char*>(&p);
      std::size_t sent = 0;
      while (sent < sizeof p) {
        const ssize_t w = write(fds[1], src + sent, sizeof p - sent);
        if (w <= 0) break;
        sent += static_cast<std::size_t>(w);
      }
      _exit(0);  // no destructors: the pool must not be torn down twice
    }
    if (pid > 0) {
      close(fds[1]);
      Payload p{};
      char* dst = reinterpret_cast<char*>(&p);
      std::size_t got = 0;
      while (got < sizeof p) {
        const ssize_t r = read(fds[0], dst + got, sizeof p - got);
        if (r <= 0) break;
        got += static_cast<std::size_t>(r);
      }
      close(fds[0]);
      int status = 0;
      waitpid(pid, &status, 0);
      if (got == sizeof p && WIFEXITED(status) && WEXITSTATUS(status) == 0)
        return p;
      return std::nullopt;
    }
    close(fds[0]);
    close(fds[1]);
  }
#endif
  return measure();
}

/// Parses the value of a numeric command-line flag of the sweep benchmarks.
/// The whole of `text` must be a non-negative number: decimal digits that
/// fit T where T is integral, a finite double otherwise. Anything else
/// (garbage, a sign, trailing characters, overflow) exits 2 with
/// "bad value for FLAG", so a typo never runs a benchmark with a zero.
template <typename T>
T parse_flag(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  bool ok = false;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const unsigned long long v = std::strtoull(text, &end, 10);
    ok = std::isdigit(static_cast<unsigned char>(text[0])) != 0 &&
         *end == '\0' && errno == 0 && v <= std::numeric_limits<T>::max();
    value = static_cast<T>(v);
  } else {
    const double v = std::strtod(text, &end);
    ok = end != text && *end == '\0' && std::isfinite(v) && v >= 0.0;
    value = v;
  }
  if (!ok) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("###############################################################\n");
  std::printf("# %s\n# Paper claim: %s\n", experiment, claim);
  std::printf("###############################################################\n\n");
}

}  // namespace thetanet::bench
