#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* cat, const char* name, double start) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({cat, name, start, start, parent, op_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index, double end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = end;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_seconds[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_seconds[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"op\":%llu,\"parent\":%d}}",
                 i == 0 ? "" : ",", r.name, r.cat, r.start * 1e6,
                 (r.end - r.start) * 1e6, (unsigned long long)r.op, r.parent);
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* cat, const char* name)
    : start_(Now()), index_(Tracer::Get().Begin(cat, name, start_)) {}

double Span::Stop() {
  if (seconds_ < 0.0) {
    const double end = Now();
    seconds_ = end - start_;
    Tracer::Get().End(index_, end);
  }
  return seconds_;
}

}  // namespace perfbench
