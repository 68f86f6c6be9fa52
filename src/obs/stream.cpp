#include "obs/stream.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"

namespace thetanet::obs {

namespace {

const char* agg_name(SeriesAgg a) {
  return a == SeriesAgg::kSum ? "sum" : "max";
}

bool spans_equal(const std::vector<SpanSnapshot>& a,
                 const std::vector<SpanSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].count != b[i].count ||
        !spans_equal(a[i].children, b[i].children))
      return false;
  }
  return true;
}

/// Pairwise window fold — the same operation SeriesRegistry's downsampler
/// applies when a stride doubles. Sum and max are associative over u64, so
/// re-windowed values are exactly the registry's values at the wider stride.
std::vector<std::uint64_t> rewindow_u64(const std::vector<std::uint64_t>& pts,
                                        std::uint64_t from_stride,
                                        std::uint64_t to_stride,
                                        SeriesAgg agg) {
  std::vector<std::uint64_t> out = pts;
  std::uint64_t s = from_stride;
  while (s < to_stride) {
    std::vector<std::uint64_t> half((out.size() + 1) / 2, 0);
    for (std::size_t i = 0; i < out.size(); ++i) {
      std::uint64_t& slot = half[i / 2];
      slot = agg == SeriesAgg::kSum ? slot + out[i] : std::max(slot, out[i]);
    }
    out = std::move(half);
    s *= 2;
  }
  return out;
}

/// Body sections mirror the dump's indentation so a frame reads like a /2
/// document fragment. `first` tracks comma placement across entries.
void open_section(std::string& out, const char* key, char bracket) {
  out += "  \"";
  out += key;
  out += "\": ";
  out += bracket;
}

void close_section(std::string& out, bool any, char bracket, bool last) {
  if (any) out += "\n  ";
  out += bracket;
  out += last ? "\n" : ",\n";
}

}  // namespace

std::string render_stream_frame(const TelemetrySnapshot& prev,
                                const TelemetrySnapshot& cur,
                                std::uint64_t seq) {
  std::string body;
  body += "{\n";

  // counters — additive deltas; new registrations appear even at 0 so the
  // folder's key set tracks the dump's.
  open_section(body, "counters", '{');
  bool any = false;
  {
    std::size_t j = 0;
    for (const CounterSnapshot& c : cur.metrics.counters) {
      while (j < prev.metrics.counters.size() &&
             prev.metrics.counters[j].name < c.name)
        ++j;
      const bool known = j < prev.metrics.counters.size() &&
                         prev.metrics.counters[j].name == c.name;
      const std::uint64_t before = known ? prev.metrics.counters[j].value : 0;
      if (known && before == c.value) continue;
      body += any ? ",\n" : "\n";
      any = true;
      body += "    ";
      detail::append_escaped(body, c.name);
      body += ": " + std::to_string(c.value - before);
    }
  }
  close_section(body, any, '}', false);

  // distributions — cumulative replacement for changed-or-new entries.
  open_section(body, "distributions", '{');
  any = false;
  {
    std::size_t j = 0;
    for (const DistributionSnapshot& d : cur.metrics.distributions) {
      while (j < prev.metrics.distributions.size() &&
             prev.metrics.distributions[j].name < d.name)
        ++j;
      const DistributionSnapshot* before =
          j < prev.metrics.distributions.size() &&
                  prev.metrics.distributions[j].name == d.name
              ? &prev.metrics.distributions[j]
              : nullptr;
      if (before != nullptr && before->count == d.count &&
          before->min == d.min && before->max == d.max &&
          before->sum == d.sum && before->p50 == d.p50 &&
          before->p99 == d.p99)
        continue;
      body += any ? ",\n" : "\n";
      any = true;
      body += "    ";
      detail::append_escaped(body, d.name);
      body += ": {\"count\": " + std::to_string(d.count) +
              ", \"max\": " + std::to_string(d.max) +
              ", \"min\": " + std::to_string(d.min) +
              ", \"p50\": " + std::to_string(d.p50) +
              ", \"p99\": " + std::to_string(d.p99) +
              ", \"sum\": " + std::to_string(d.sum) + "}";
    }
  }
  close_section(body, any, '}', false);

  body += "  \"frame\": " + std::to_string(seq) + ",\n";
  body += "  \"schema\": ";
  detail::append_escaped(body, kStreamSchema);
  body += ",\n";

  // series — u64: sparse window replacement at the current stride; f64:
  // full-array replacement (float addition is order-sensitive, so only
  // wholesale replacement keeps the fold bit-exact).
  open_section(body, "series", '{');
  any = false;
  {
    std::size_t j = 0;
    for (const SeriesSnapshot& s : cur.series) {
      while (j < prev.series.size() && prev.series[j].name < s.name) ++j;
      const SeriesSnapshot* before =
          j < prev.series.size() && prev.series[j].name == s.name
              ? &prev.series[j]
              : nullptr;
      const bool meta_changed = before == nullptr ||
                                before->stride != s.stride ||
                                before->rounds != s.rounds;
      std::string pts;
      bool changed = false;
      if (s.kind == SeriesKind::kU64) {
        TN_ASSERT(before == nullptr || s.stride % before->stride == 0);
        const std::vector<std::uint64_t> base =
            before == nullptr
                ? std::vector<std::uint64_t>{}
                : rewindow_u64(before->upoints, before->stride, s.stride,
                               s.agg);
        pts += '{';
        bool first_pt = true;
        for (std::size_t w = 0; w < s.upoints.size(); ++w) {
          const bool differs = w < base.size() ? s.upoints[w] != base[w]
                                               : s.upoints[w] != 0;
          if (!differs) continue;
          if (!first_pt) pts += ", ";
          first_pt = false;
          pts += '"' + std::to_string(w) + "\": " + std::to_string(s.upoints[w]);
        }
        pts += '}';
        changed = !first_pt;
      } else {
        const bool same =
            before != nullptr && !meta_changed &&
            before->fpoints.size() == s.fpoints.size() &&
            (s.fpoints.empty() ||
             std::memcmp(before->fpoints.data(), s.fpoints.data(),
                         s.fpoints.size() * sizeof(double)) == 0);
        pts += '[';
        if (!same) {
          for (std::size_t i = 0; i < s.fpoints.size(); ++i) {
            if (i != 0) pts += ", ";
            detail::append_f64(pts, s.fpoints[i]);
          }
        }
        pts += ']';
        changed = !same && !s.fpoints.empty();
      }
      if (!meta_changed && !changed) continue;
      body += any ? ",\n" : "\n";
      any = true;
      body += "    ";
      detail::append_escaped(body, s.name);
      body += ": {\"agg\": \"";
      body += agg_name(s.agg);
      body += "\", \"kind\": \"";
      body += s.kind == SeriesKind::kU64 ? "u64" : "f64";
      body += "\", \"points\": " + pts +
              ", \"rounds\": " + std::to_string(s.rounds) +
              ", \"stride\": " + std::to_string(s.stride) + "}";
    }
  }

  // spans — full deterministic forest, only in frames where it changed.
  const bool spans_changed = !spans_equal(prev.spans, cur.spans);
  close_section(body, any, '}', !spans_changed);
  if (spans_changed) {
    open_section(body, "spans", '[');
    for (std::size_t i = 0; i < cur.spans.size(); ++i) {
      body += i == 0 ? "\n" : ",\n";
      detail::append_span_json(body, cur.spans[i], 2);
    }
    close_section(body, !cur.spans.empty(), ']', true);
  }
  body += "}\n";

  std::string out = "FRAME " + std::to_string(seq) + ' ' +
                    std::to_string(body.size()) + '\n';
  out += body;
  return out;
}

std::string TelemetryStreamer::next_frame() {
  return frame_from(capture_telemetry());
}

std::string TelemetryStreamer::frame_from(const TelemetrySnapshot& cur) {
  std::string out = render_stream_frame(prev_, cur, seq_);
  prev_ = cur;
  ++seq_;
  return out;
}

// ---------------------------------------------------------------------------
// Folder.

bool StreamFolder::fold(const ParsedFrame& frame, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (frame.frame != next_seq_)
    return fail("expected frame " + std::to_string(next_seq_) + ", got " +
                std::to_string(frame.frame));
  ++next_seq_;

  for (const auto& [name, delta] : frame.counters) counters_[name] += delta;
  for (const auto& [name, d] : frame.distributions) dists_[name] = d;

  for (const auto& [name, sd] : frame.series) {
    SeriesState& st = series_[name];
    if (sd.agg == "sum") {
      st.agg = SeriesAgg::kSum;
    } else if (sd.agg == "max") {
      st.agg = SeriesAgg::kMax;
    } else {
      return fail("series '" + name + "' has unknown agg '" + sd.agg + "'");
    }
    if (sd.kind == "u64") {
      st.kind = SeriesKind::kU64;
    } else if (sd.kind == "f64") {
      st.kind = SeriesKind::kF64;
    } else {
      return fail("series '" + name + "' has unknown kind '" + sd.kind + "'");
    }
    if (sd.stride < st.stride || sd.stride % st.stride != 0 || sd.stride == 0)
      return fail("series '" + name + "' stride regressed (" +
                  std::to_string(st.stride) + " -> " +
                  std::to_string(sd.stride) + ")");
    if (st.kind == SeriesKind::kU64) {
      if (sd.stride > st.stride)
        st.upoints = rewindow_u64(st.upoints, st.stride, sd.stride, st.agg);
      const std::size_t windows =
          sd.rounds == 0
              ? 0
              : static_cast<std::size_t>((sd.rounds - 1) / sd.stride) + 1;
      st.upoints.resize(windows, 0);
      for (const auto& [w, v] : sd.uwindows) {
        if (w >= windows)
          return fail("series '" + name + "' window " + std::to_string(w) +
                      " out of range");
        st.upoints[w] = v;
      }
    } else {
      st.fpoints = sd.fpoints;
    }
    st.stride = sd.stride;
    st.rounds = sd.rounds;
  }

  if (frame.has_spans) {
    // Replace the whole forest (the frame carried it because it changed).
    struct Conv {
      static SpanSnapshot run(const ParsedSpan& p) {
        SpanSnapshot s;
        s.name = p.name;
        s.count = p.count;
        for (const ParsedSpan& c : p.children) s.children.push_back(run(c));
        return s;
      }
    };
    spans_.clear();
    for (const ParsedSpan& p : frame.spans) spans_.push_back(Conv::run(p));
  }
  return true;
}

TelemetrySnapshot StreamFolder::snapshot() const {
  TelemetrySnapshot snap;
  for (const auto& [name, value] : counters_)
    snap.metrics.counters.push_back({name, value});
  for (const auto& [name, d] : dists_)
    snap.metrics.distributions.push_back(
        {name, d.count, d.min, d.max, d.sum, d.p50, d.p99});
  for (const auto& [name, st] : series_) {
    SeriesSnapshot s;
    s.name = name;
    s.agg = st.agg;
    s.kind = st.kind;
    s.stride = st.stride;
    s.rounds = st.rounds;
    s.upoints = st.upoints;
    s.fpoints = st.fpoints;
    snap.series.push_back(std::move(s));
  }
  snap.spans = spans_;
  return snap;
}

std::string StreamFolder::to_dump_json() const {
  return to_json(snapshot());
}

}  // namespace thetanet::obs
