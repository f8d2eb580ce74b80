// Benchmark-side tracing: spans recorded by the benchmark's own code
// around each public library call it makes (the library's internal trace
// recorder stays off). Spans are kept in memory and written out once as a
// Chrome trace_event file at the end of the run.

#ifndef ATMX_PERFBENCH_SPANS_H_
#define ATMX_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Seconds on the steady clock since the first call.
double Now();

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  // Starts a new operation: spans begun from now on carry its id, so the
  // spans of one call share an identifier.
  void NewOp() { ++op_; }

  // Opens a span at `start` (child of the innermost open span) and returns
  // its index, or -1 when tracing is off.
  int Begin(const char* cat, const char* name, double start);
  void End(int index, double end);

  // Self time (duration minus the time covered by direct children) summed
  // per span name.
  std::map<std::string, double> SelfSecondsByName() const;
  std::size_t size() const { return spans_.size(); }

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* cat;
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t op;
  };

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

// Times one call with the steady clock (always) and records it as a span
// (only while tracing is on).
class Span {
 public:
  Span(const char* cat, const char* name);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

 private:
  double start_;
  double seconds_ = -1.0;
  int index_;
};

}  // namespace perfbench

#endif  // ATMX_PERFBENCH_SPANS_H_
