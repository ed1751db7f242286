#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

struct SpanInfo {
  const char* label;
  const char* module;
};

constexpr SpanInfo kSpanInfo[] = {
    {"read_request", "bench"},      {"write_request", "bench"},
    {"service.run", "service"},     {"query.prepare", "query"},
    {"query.open", "query"},        {"query.fetch", "query"},
    {"query.execute", "query"},     {"index.lookup", "index"},
    {"db.write", "db"},             {"degrade.pass", "degrade"},
    {"maintain.run_once", "maintain"}, {"maintain.audit", "maintain"},
};
static_assert(sizeof(kSpanInfo) / sizeof(kSpanInfo[0]) ==
              static_cast<size_t>(SpanName::kCount));

}  // namespace

const char* SpanLabel(SpanName name) {
  return kSpanInfo[static_cast<size_t>(name)].label;
}

const char* SpanModule(SpanName name) {
  return kSpanInfo[static_cast<size_t>(name)].module;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int32_t>(i));
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (int32_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    // Merge the sorted intervals into disjoint runs and sum their lengths.
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    for (size_t k = 0; k < covered.size(); ++k) {
      const auto [lo, hi] = covered[k];
      if (k > 0 && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
    }
    union_ns += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

int32_t Tracer::Buffer::Open(SpanName name) {
  SpanRecord record;
  record.name = name;
  record.thread = thread_;
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request_;
  record.start_ns = SteadyNanos();
  spans_.push_back(record);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Buffer::Close(int32_t index) {
  spans_[index].end_ns = SteadyNanos();
  open_.pop_back();
}

void Tracer::Buffer::Add(SpanName name, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  SpanRecord record;
  record.name = name;
  record.thread = thread_;
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request_;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  spans_.push_back(record);
}

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back(new Buffer(enabled_, static_cast<uint16_t>(buffers_.size())));
  return buffers_.back().get();
}

std::vector<const Tracer::Buffer*> Tracer::buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Buffer*> out;
  for (const auto& buffer : buffers_) out.push_back(buffer.get());
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) buffer->spans_.clear();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,request,name,module,start_ns,end_ns,self_ns\n");
  for (const Buffer* buffer : buffers()) {
    const std::vector<SpanRecord>& spans = buffer->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f, "%u,%zu,%d,%llu,%s,%s,%lld,%lld,%lld\n", s.thread, i,
                   s.parent, static_cast<unsigned long long>(s.request),
                   SpanLabel(s.name), SpanModule(s.name),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
