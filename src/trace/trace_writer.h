// Records an access stream into the binary trace format (trace_format.h).
//
// The writer is fed at the simulation's per-epoch batch-fill points, which
// run on the cell's one thread, so capture observes the identical stream at
// every --jobs setting and adds no synchronization to the access loop (the
// bounded-overhead capture lesson: the recorder must not distort the
// workload being recorded).
#ifndef NUMALP_SRC_TRACE_TRACE_WRITER_H_
#define NUMALP_SRC_TRACE_TRACE_WRITER_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace numalp::trace {

class TraceWriter {
 public:
  // Opens `path` and writes magic + version + the header chunk. Throws
  // std::runtime_error on I/O failure.
  TraceWriter(const std::string& path, const TraceHeader& header);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  const TraceHeader& header() const { return header_; }

  // One epoch = one chunk. Events accumulate in the payload buffer between
  // BeginEpoch and EndEpoch; EndEpoch frames and flushes the chunk.
  void BeginEpoch(bool in_setup);
  void RegionMap(const RegionMapEvent& event);
  void RegionUnmap(const RegionUnmapEvent& event);
  void Batch(int thread, const std::vector<WorkloadAccess>& accesses);
  void EndEpoch(bool done_after);

  // Writes the trace-end chunk and closes the file. Implicitly called (with
  // completed=false) by the destructor if the caller never finished.
  void Finish(bool completed);

 private:
  void WriteChunk();

  std::string path_;
  TraceHeader header_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> payload_;
};

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACE_WRITER_H_
