#include "trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run_id = run_id_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                 int parent) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.run_id = run_id_;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::SelfTimeMs(size_t first,
                                                 size_t last) const {
  last = std::min(last, spans_.size());
  std::vector<int64_t> self(last > first ? last - first : 0, 0);
  for (size_t i = first; i < last; ++i) {
    self[i - first] += spans_[i].end_ns - spans_[i].start_ns;
    const int parent = spans_[i].parent;
    // Children of one parent run one after another (the benchmark is
    // single-threaded), so subtracting each child's duration removes
    // exactly the covered part of the parent's interval.
    if (parent >= 0 && static_cast<size_t>(parent) >= first &&
        static_cast<size_t>(parent) < last) {
      self[static_cast<size_t>(parent) - first] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = first; i < last; ++i) {
    out[spans_[i].name] += static_cast<double>(self[i - first]) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"run\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 s.run_id);
  }
  return std::fclose(f) == 0;
}

void LogHistogram::Add(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
  int bucket = 0;
  if (v >= kSub) {
    // Octave of v above the linear range, then kSub sub-buckets inside it.
    const int octave = std::bit_width(v) - 1;  // >= log2(kSub)
    const int shift = octave - 5;               // kSub == 2^5
    const int sub = static_cast<int>((v >> shift) - kSub);
    bucket = kSub + (shift * kSub) + sub;
  } else {
    bucket = static_cast<int>(v);
  }
  bucket = std::min(bucket, kBuckets - 1);
  ++counts_[static_cast<size_t>(bucket)];
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<size_t>(b)];
    if (seen < rank) continue;
    if (b < kSub) return static_cast<double>(b);
    const int shift = (b - kSub) / kSub;
    const int sub = (b - kSub) % kSub;
    const double lo = std::ldexp(static_cast<double>(kSub + sub), shift);
    const double width = std::ldexp(1.0, shift);
    return lo + width / 2.0;
  }
  return 0.0;
}

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sample.size())));
  if (rank == 0) rank = 1;
  return sample[rank - 1];
}

void Fingerprint::Mix(const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ULL;
  }
}

}  // namespace perfbench
