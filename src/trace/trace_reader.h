// Bulk-ingesting reader for the binary trace format (trace_format.h).
//
// Chunks carry explicit lengths, so the reader never scans for record
// boundaries: it issues one large sequential read per chunk (the bulk-scan
// ingest idiom) and keeps two chunk buffers — while the epoch loop consumes
// the decoded front chunk, the next one has already been read into the back
// buffer. The swap is synchronous (no background thread: deterministic, and
// clean under TSan); the win is that file I/O happens in chunk-sized slabs
// off the per-access path, not that it overlaps compute.
//
// Corruption handling is strict: a bad magic/version, a checksum mismatch, an
// oversized length prefix, or a truncated chunk all throw std::runtime_error.
#ifndef NUMALP_SRC_TRACE_TRACE_READER_H_
#define NUMALP_SRC_TRACE_TRACE_READER_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace_format.h"

namespace numalp::trace {

class TraceReader {
 public:
  // Opens `path`, validates magic/version, decodes the header chunk and
  // prefetches the first epoch chunk. Throws std::runtime_error on any
  // I/O or format error.
  explicit TraceReader(const std::string& path);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  const TraceHeader& header() const { return header_; }

  // Decodes the next chunk into *out and prefetches the one after it.
  // Returns false (with out->trace_end set) once the trace-end marker is
  // reached; after that every call returns false.
  bool NextEpoch(TraceEpoch* out);

  // Valid once NextEpoch returned false: did the recorded run complete?
  bool completed() const { return completed_; }

 private:
  // Reads one framed chunk into `buffer` (checksum-verified).
  void ReadChunkInto(std::vector<std::uint8_t>* buffer);
  void DecodeEpoch(const std::vector<std::uint8_t>& payload, TraceEpoch* out) const;

  std::string path_;
  TraceHeader header_;
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<std::uint8_t> front_;
  std::vector<std::uint8_t> back_;
  bool end_seen_ = false;
  bool completed_ = false;
};

// Reads and returns just the header of `path` (provenance for option
// parsing and replay validation) without ingesting the stream.
TraceHeader ReadTraceHeader(const std::string& path);

}  // namespace numalp::trace

#endif  // NUMALP_SRC_TRACE_TRACE_READER_H_
