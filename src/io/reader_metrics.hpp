// Shared reader instruments (defined in calireader.cpp). Both stream
// readers feed the same counters, so "reader.*" reflects total input work
// regardless of format:
//
//   reader.records           records delivered to the sink
//   reader.entries           record fields delivered
//   reader.name_resolutions  registry lookups (the resolve-once invariant:
//                            one per attribute *definition*, not per record)
//   reader.bytes             actual input bytes consumed (terminators and
//                            CRLF included; each byte counted once — a
//                            byte-range worker charges only its own chunk)
//   reader.value_cache_hits  string-valued .cali fields served without the
//                            pool (parser's string cache or last-value memo)
//   reader.string_interns    string-valued .cali fields interned (cache
//                            misses, new escaped and drifted values)
//   phase.read               exclusive read time (sink calls excluded)
//   batch.fill               time to fill one RecordBatch (batched entry
//                            points only; sink calls excluded)
//
// filebuffer.cpp additionally owns the reader.mmap gauge: bytes currently
// memory-mapped (0 on the read() fallback path).
#pragma once

#include "../obs/metrics.hpp"

namespace calib::iometrics {

extern obs::Counter records;
extern obs::Counter entries;
extern obs::Counter name_resolutions;
extern obs::Counter bytes;
extern obs::Counter value_cache_hits;
extern obs::Counter string_interns;
extern obs::Timer read_time;
extern obs::Timer batch_fill;

} // namespace calib::iometrics
