#include "calireader.hpp"

#include "reader_metrics.hpp"

#include "../common/util.hpp"
#include "../common/variant.hpp"

#include <charconv>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace calib {

namespace iometrics {
obs::Counter records("reader.records");
obs::Counter entries("reader.entries");
obs::Counter name_resolutions("reader.name_resolutions");
obs::Counter bytes("reader.bytes");
obs::Counter value_cache_hits("reader.value_cache_hits");
obs::Counter string_interns("reader.string_interns");
obs::Timer read_time("phase.read");
obs::Timer batch_fill("batch.fill");
} // namespace iometrics

namespace {

/// Raw field bytes -> interned string, shared by every string attribute of
/// one parse: the interned pointer depends only on the bytes, not on the
/// attribute or its type. Direct-mapped, one pointer per slot (8 KiB per
/// parser, whatever the schema). A hit is the pooled hash and length read
/// from the string's header plus one memcmp; a miss interns and takes the
/// slot.
class StringCache {
public:
    /// The interned string equal to \a raw; \a hit tells whether the
    /// pool was skipped.
    const char* get(std::string_view raw, bool& hit) {
        const std::uint64_t h = fnv1a(raw);
        const char*& slot     = slots_[mix64(h) & (kSlots - 1)];
        hit = slot && StringPool::hash(slot) == h &&
              StringPool::length(slot) == raw.size() &&
              std::memcmp(slot, raw.data(), raw.size()) == 0;
        if (!hit)
            slot = intern(raw);
        return slot;
    }

private:
    static constexpr std::size_t kSlots = 1024;
    const char* slots_[kSlots] = {};
};

/// Resolved attribute definition: the stream-local id maps straight to a
/// registry id, so record fields never touch the attribute name again.
/// Lives in a flat vector indexed by the (dense, file-local) id.
struct LocalAttr {
    id_t id            = invalid_id;
    Variant::Type type = Variant::Type::Empty;
    /// Memoized last raw value -> parsed Variant for the fields the
    /// string cache does not take: escaped strings, and numeric columns
    /// (ranks, iteration counters).
    bool has_last = false;
    std::string last_raw;
    Variant last_val;
};

/// Stream-local attribute ids are dense by contract (docs/FORMAT.md); this
/// bounds the flat definition table against corrupt or hostile inputs.
constexpr std::uint32_t kMaxLocalAttrId = 1u << 24;

/// Iterate ','-separated fields, honoring backslash escapes of the
/// separator; keeps empty fields. Field views point into \a s with escape
/// sequences intact (split_escaped semantics without the allocations).
/// Returns true when the input ends inside an escape sequence (a dangling
/// backslash — the input was truncated mid-field).
template <typename Fn>
bool for_each_field(std::string_view s, Fn&& fn) {
    std::size_t start = 0;
    bool esc          = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (esc)
            esc = false;
        else if (s[i] == '\\')
            esc = true;
        else if (s[i] == ',') {
            fn(s.substr(start, i - start));
            start = i + 1;
        }
    }
    fn(s.substr(start));
    return esc;
}

/// Undo escapes only when the field actually contains one; the scratch
/// buffer is reused across fields so the common case allocates nothing.
std::string_view unescaped(std::string_view field, std::string& scratch) {
    if (field.find('\\') == std::string_view::npos)
        return field;
    scratch = util::unescape(field);
    return scratch;
}

bool is_integer_literal(std::string_view text) {
    std::size_t i = (text[0] == '-') ? 1 : 0;
    if (i == text.size())
        return false;
    // "-0" (and "-000") is a double's negative zero, not an integer — the
    // exact-integer path would read it back as +0.0
    if (text[0] == '-' && text.find_first_not_of('0', 1) == std::string_view::npos)
        return false;
    for (; i < text.size(); ++i)
        if (text[i] < '0' || text[i] > '9')
            return false;
    return true;
}

Variant parse_value(Variant::Type type, std::string_view text) {
    // empty field text always means an empty string: the writer omits
    // Empty values entirely, so "x=" can only come from a string value
    // (possibly type-drifted into a differently-declared column)
    if (text.empty())
        return Variant(text);
    if (type == Variant::Type::Double && !text.empty() &&
        is_integer_literal(text)) {
        // A writer types a column from its first record, but result rows
        // legitimately mix exact integer sums with overflow-widened
        // doubles in one column. Parsing such an integer literal as
        // double would silently drop low bits above 2^53 — parse it
        // exactly, and keep the integer only when the double conversion
        // is lossy (type drifts, value survives).
        Variant exact = Variant::parse(Variant::Type::Int, text);
        if (exact.empty())
            exact = Variant::parse(Variant::Type::UInt, text);
        if (!exact.empty()) {
            const double d = exact.type() == Variant::Type::Int
                                 ? static_cast<double>(exact.as_int())
                                 : static_cast<double>(exact.as_uint());
            const bool lossless =
                exact.type() == Variant::Type::Int
                    ? (d >= -0x1p63 && d < 0x1p63 &&
                       static_cast<std::int64_t>(d) == exact.as_int())
                    : (d < 0x1p64 &&
                       static_cast<std::uint64_t>(d) == exact.as_uint());
            return lossless ? Variant(d) : exact;
        }
    }
    Variant v = Variant::parse(type, text);
    if (v.empty() && !text.empty())
        v = Variant::parse_guess(text); // type drifted within the stream
    if (v.empty() && type == Variant::Type::String)
        v = Variant(text);
    return v;
}

/// Line-level parser shared by every entry point (istream, whole buffer,
/// byte-range chunk). Holds the per-stream state — the local-id definition
/// table, a reused record, an unescape scratch buffer — so steady-state
/// record parsing allocates nothing. Metric deltas accumulate locally and
/// land on the global "reader.*" counters in one flush_metrics() call.
class CaliParser {
public:
    CaliParser(AttributeRegistry& registry, const CaliReader::IdSink& sink,
               IdRecord* globals, std::uint64_t begin = 0,
               std::uint64_t end = UINT64_MAX)
        : registry_(registry), sink_(sink), globals_(globals), begin_(begin),
          end_(end) {}

    /// Error messages use lineno + 1 for the next line() call — chunk
    /// readers set this so messages carry whole-file line numbers.
    void set_lineno(std::size_t lineno) noexcept { lineno_ = lineno; }

    /// Exclusive-read-time timer to pause around sink calls.
    void set_span(obs::SpanTimer* span) noexcept { span_ = span; }

    /// Switch to batched emission: records append into \a batch and \a sink
    /// fires every \a cap records. Call finish() after the last line to
    /// flush the trailing partial batch. Globals still accumulate record-
    /// at-a-time.
    void set_batch(RecordBatch& batch, std::size_t cap,
                   const CaliReader::BatchSink& sink) {
        batch_     = &batch;
        batch_cap_ = cap ? cap : 1;
        bsink_     = &sink;
        fill_start_ = std::chrono::steady_clock::now();
    }

    /// Emit a trailing partial batch (batch mode only).
    void finish() {
        if (batch_ && !batch_->empty())
            emit_batch();
    }

    /// Parse one line (newline and any trailing '\r' already stripped).
    void line(std::string_view line) {
        ++lineno_;
        if (line.empty())
            return;
        if (line[0] == '#')
            return; // header / comments

        const char kind = line[0];
        if (line.size() >= 2 && line[1] != ',')
            fail("malformed line");
        // records outside the requested range are counted but not parsed
        if (kind == 'R') {
            const std::uint64_t index = record_index_++;
            if (index < begin_ || index >= end_)
                return;
        }
        // a bare "R" is a legal empty record (snapshot with no entries)
        const std::string_view rest =
            line.size() >= 2 ? line.substr(2) : std::string_view();

        if (kind == 'A') {
            // resolve the attribute name here, once per definition line —
            // every record field below is a pure integer lookup
            std::string_view fields[3];
            std::size_t nfields = 0;
            const bool dangling = for_each_field(rest, [&](std::string_view f) {
                if (nfields < 3)
                    fields[nfields] = f;
                ++nfields;
            });
            if (dangling)
                fail("bad escape at end of field");
            if (nfields < 3)
                fail("malformed attribute definition");
            const std::uint32_t local = parse_local_id(fields[0]);
            const Variant::Type type  = Variant::type_from_name(fields[2]);
            const Attribute attribute =
                registry_.create(unescaped(fields[1], scratch_), type);
            ++resolutions_;
            if (local >= attrs_.size())
                attrs_.resize(local + 1);
            LocalAttr& slot = attrs_[local];
            slot.id         = attribute.id();
            slot.type       = type;
            slot.has_last   = false; // a redefinition invalidates the memo
        } else if (kind == 'R' || kind == 'G') {
            // batch mode: record fields go straight into the column
            // vectors; globals keep the record scratch either way
            const bool to_batch = batch_ != nullptr && kind == 'R';
            if (to_batch)
                batch_->begin_row();
            else
                rec_.clear();
            // single-pass field walk: id digits, '=', value up to the next
            // unescaped ',' — no repeated scans of the same bytes
            const char* p   = rest.data();
            const char* end = p + rest.size();
            while (p < end) {
                if (*p == ',') { // empty field
                    ++p;
                    continue;
                }
                std::uint32_t local = 0;
                const char* q       = p;
                while (q < end && *q >= '0' && *q <= '9') {
                    local = local * 10 + static_cast<std::uint32_t>(*q - '0');
                    if (local >= kMaxLocalAttrId)
                        fail("attribute id out of range");
                    ++q;
                }
                if (q == p)
                    fail("malformed attribute id");
                if (q == end || *q != '=')
                    fail("missing '=' in record field");
                if (local >= attrs_.size() || attrs_[local].id == invalid_id)
                    fail("record references undefined attribute " +
                         std::to_string(local));
                LocalAttr& a  = attrs_[local];
                const char* v = ++q;
                bool escaped  = false;
                while (q < end && *q != ',') {
                    if (*q == '\\') {
                        escaped = true;
                        if (++q == end)
                            fail("bad escape at end of field");
                    }
                    ++q;
                }
                const std::string_view raw(v, static_cast<std::size_t>(q - v));
                Variant val;
                if (a.type == Variant::Type::String && !escaped) {
                    // a string attribute parses unescaped text to itself:
                    // profiling streams repeat a few dozen names (kernels,
                    // MPI functions) in every order, and a hit skips the
                    // pool and its lock
                    bool hit = false;
                    val = Variant::from_interned(strings_.get(raw, hit));
                    ++(hit ? cache_hits_ : interns_);
                } else if (a.has_last && raw == a.last_raw) {
                    val = a.last_val; // memoized repeat value
                    cache_hits_ += val.is_string();
                } else {
                    std::string_view text = raw;
                    if (escaped) {
                        scratch_ = util::unescape(raw);
                        text     = scratch_;
                    }
                    val = parse_value(a.type, text);
                    interns_ += val.is_string();
                    // equal raw bytes parse to an equal value
                    a.last_raw.assign(raw.data(), raw.size());
                    a.last_val = val;
                    a.has_last = true;
                }
                if (to_batch)
                    batch_->append(a.id, val);
                else
                    rec_.append(a.id, val);
                p = q < end ? q + 1 : end;
            }
            if (kind == 'R') {
                ++records_;
                if (to_batch) {
                    entries_ += batch_->end_row();
                    if (batch_->rows() >= batch_cap_)
                        emit_batch();
                } else {
                    entries_ += rec_.size();
                    if (span_)
                        span_->pause(); // downstream pipeline time is theirs
                    sink_(std::move(rec_));
                    if (span_)
                        span_->resume();
                }
            } else if (globals_) {
                for (const Entry& e : rec_)
                    globals_->append(e);
            }
        } else {
            fail(std::string("unknown line kind '") + kind + "'");
        }
    }

    /// Land the accumulated deltas on the global reader instruments.
    /// \a nbytes is the input actually consumed by this parse.
    void flush_metrics(std::uint64_t nbytes) const {
        iometrics::records.add(records_);
        iometrics::entries.add(entries_);
        iometrics::name_resolutions.add(resolutions_);
        iometrics::bytes.add(nbytes);
        iometrics::value_cache_hits.add(cache_hits_);
        iometrics::string_interns.add(interns_);
    }

private:
    void emit_batch() {
        const auto now = std::chrono::steady_clock::now();
        iometrics::batch_fill.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 fill_start_)
                .count()));
        if (span_)
            span_->pause(); // downstream pipeline time is theirs
        (*bsink_)(*batch_);
        if (span_)
            span_->resume();
        batch_->clear(); // safe after a sink that moved the batch away
        fill_start_ = std::chrono::steady_clock::now();
    }

    [[noreturn]] void fail(const std::string& msg) const {
        throw std::runtime_error("calib-stream line " + std::to_string(lineno_) +
                                 ": " + msg);
    }

    std::uint32_t parse_local_id(std::string_view text) const {
        std::uint32_t id     = 0;
        const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), id);
        if (ec != std::errc() || ptr == text.data())
            fail("malformed attribute id");
        if (id >= kMaxLocalAttrId)
            fail("attribute id out of range");
        return id;
    }

    AttributeRegistry& registry_;
    const CaliReader::IdSink& sink_;
    IdRecord* globals_;
    std::uint64_t begin_, end_;

    std::vector<LocalAttr> attrs_; ///< flat table, indexed by local id
    IdRecord rec_;                 ///< reused record scratch
    std::string scratch_;          ///< reused unescape buffer
    StringCache strings_;          ///< unescaped string fields
    obs::SpanTimer* span_ = nullptr;

    // batched emission (set_batch)
    RecordBatch* batch_                   = nullptr;
    std::size_t batch_cap_                = 0;
    const CaliReader::BatchSink* bsink_   = nullptr;
    std::chrono::steady_clock::time_point fill_start_{};

    std::size_t lineno_         = 0;
    std::uint64_t record_index_ = 0;
    std::uint64_t records_ = 0, entries_ = 0, resolutions_ = 0;
    std::uint64_t cache_hits_ = 0, interns_ = 0;
};

/// Walk newline-separated lines of \a text zero-copy, stripping a trailing
/// '\r' (CRLF input) from each line before handing it to \a fn.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
    const char* base    = text.data();
    const std::size_t n = text.size();
    std::size_t pos     = 0;
    while (pos < n) {
        const void* nl = std::memchr(base + pos, '\n', n - pos);
        const std::size_t eol =
            nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - base) : n;
        std::string_view line(base + pos, eol - pos);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        fn(line);
        pos = eol + 1;
    }
}

void parse_buffer_range(std::string_view text, std::uint64_t begin,
                        std::uint64_t end, AttributeRegistry& registry,
                        const CaliReader::IdSink& sink, IdRecord* globals) {
    CaliParser parser(registry, sink, globals, begin, end);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);
    for_each_line(text, [&parser](std::string_view line) { parser.line(line); });
    parser.flush_metrics(text.size());
}

const CaliReader::IdSink& noop_id_sink() {
    static const CaliReader::IdSink sink = [](IdRecord&&) {};
    return sink;
}

void parse_buffer_range_batches(std::string_view text, std::uint64_t begin,
                                std::uint64_t end, AttributeRegistry& registry,
                                std::size_t batch_size,
                                const CaliReader::BatchSink& sink,
                                IdRecord* globals) {
    CaliParser parser(registry, noop_id_sink(), globals, begin, end);
    RecordBatch batch;
    parser.set_batch(batch, batch_size, sink);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);
    for_each_line(text, [&parser](std::string_view line) { parser.line(line); });
    parser.finish();
    parser.flush_metrics(text.size());
}

} // namespace

void CaliReader::read(std::istream& is, AttributeRegistry& registry,
                      const IdSink& sink, IdRecord* globals) {
    read_range(is, 0, UINT64_MAX, registry, sink, globals);
}

void CaliReader::read_range(std::istream& is, std::uint64_t begin, std::uint64_t end,
                            AttributeRegistry& registry, const IdSink& sink,
                            IdRecord* globals) {
    CaliParser parser(registry, sink, globals, begin, end);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);
    std::string line;
    std::uint64_t nbytes = 0;
    while (std::getline(is, line)) {
        // bytes actually consumed: the line (incl. any '\r') plus the '\n'
        // delimiter — unless this final line was terminated by EOF instead
        nbytes += line.size() + (is.eof() ? 0 : 1);
        std::string_view ln(line);
        if (!ln.empty() && ln.back() == '\r')
            ln.remove_suffix(1); // CRLF input parses identically
        parser.line(ln);
    }
    parser.flush_metrics(nbytes);
}

void CaliReader::read_buffer(std::string_view text, AttributeRegistry& registry,
                             const IdSink& sink, IdRecord* globals) {
    parse_buffer_range(text, 0, UINT64_MAX, registry, sink, globals);
}

void CaliReader::read_file(const std::string& path, AttributeRegistry& registry,
                           const IdSink& sink, IdRecord* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    read_buffer(buf.view(), registry, sink, globals);
}

void CaliReader::read_file_range(const std::string& path, std::uint64_t begin,
                                 std::uint64_t end, AttributeRegistry& registry,
                                 const IdSink& sink, IdRecord* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    parse_buffer_range(buf.view(), begin, end, registry, sink, globals);
}

// -- batched entry points ----------------------------------------------------

void CaliReader::read_buffer_batches(std::string_view text,
                                     AttributeRegistry& registry,
                                     std::size_t batch_size,
                                     const BatchSink& sink, IdRecord* globals) {
    parse_buffer_range_batches(text, 0, UINT64_MAX, registry, batch_size, sink,
                               globals);
}

void CaliReader::read_file_batches(const std::string& path,
                                   AttributeRegistry& registry,
                                   std::size_t batch_size, const BatchSink& sink,
                                   IdRecord* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    read_buffer_batches(buf.view(), registry, batch_size, sink, globals);
}

void CaliReader::read_file_range_batches(const std::string& path,
                                         std::uint64_t begin, std::uint64_t end,
                                         AttributeRegistry& registry,
                                         std::size_t batch_size,
                                         const BatchSink& sink,
                                         IdRecord* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    parse_buffer_range_batches(buf.view(), begin, end, registry, batch_size,
                               sink, globals);
}

// -- byte-range source -------------------------------------------------------

CaliFileSource::CaliFileSource(std::string path, std::size_t target_chunk_bytes)
    : buffer_(FileBuffer::open(path)), path_(std::move(path)) {
    const std::string_view text = buffer_.view();
    const char* base            = text.data();
    const std::size_t n         = text.size();
    if (target_chunk_bytes == 0)
        target_chunk_bytes = n ? n : 1;

    // single planning pass: line-boundary chunk splits, per-chunk record
    // counts, and the offsets of every (rare) 'A'/'G' metadata line
    Chunk cur{0, 0, 1, 0};
    std::size_t lineno = 0;
    std::size_t pos    = 0;
    while (pos < n) {
        if (pos - cur.begin >= target_chunk_bytes) {
            cur.end = pos;
            chunks_.push_back(cur);
            cur = Chunk{pos, 0, lineno + 1, 0};
        }
        ++lineno;
        const void* nl = std::memchr(base + pos, '\n', n - pos);
        const std::size_t eol =
            nl ? static_cast<std::size_t>(static_cast<const char*>(nl) - base) : n;
        std::uint32_t len = static_cast<std::uint32_t>(eol - pos);
        if (len > 0 && base[pos + len - 1] == '\r')
            --len;
        const char kind = len > 0 ? base[pos] : '\0';
        if (kind == 'R') {
            ++cur.records;
            ++num_records_;
        } else if (kind == 'A' || kind == 'G') {
            meta_.push_back(MetaLine{pos, len, lineno, kind});
        }
        pos = eol + 1;
    }
    if (n > 0) {
        cur.end = n;
        chunks_.push_back(cur);
    }
}

bool CaliFileSource::has_globals() const noexcept {
    for (const MetaLine& m : meta_)
        if (m.kind == 'G')
            return true;
    return false;
}

void CaliFileSource::read_chunk(std::size_t index, AttributeRegistry& registry,
                                const CaliReader::IdSink& sink) const {
    const Chunk& chunk = chunks_.at(index);
    CaliParser parser(registry, sink, nullptr);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);

    // replay the attribute definitions preceding this range, in file order
    // and under their original line numbers, so the chunk parses exactly as
    // a sequential scan would have ('A' lines inside the range parse
    // in-place; 'G' lines are handled once, by read_globals())
    for (const MetaLine& m : meta_) {
        if (m.offset >= chunk.begin)
            break;
        if (m.kind != 'A')
            continue;
        parser.set_lineno(m.lineno - 1);
        parser.line(std::string_view(buffer_.data() + m.offset, m.size));
    }

    parser.set_lineno(chunk.first_line - 1);
    for_each_line(std::string_view(buffer_.data() + chunk.begin,
                                   chunk.end - chunk.begin),
                  [&parser](std::string_view line) { parser.line(line); });
    // only the bytes of this range count: per-worker reader.bytes sums to
    // the file size, not workers x file size
    parser.flush_metrics(chunk.end - chunk.begin);
}

void CaliFileSource::read_chunk_batches(std::size_t index,
                                        AttributeRegistry& registry,
                                        std::size_t batch_size,
                                        const CaliReader::BatchSink& sink) const {
    const Chunk& chunk = chunks_.at(index);
    CaliParser parser(registry, noop_id_sink(), nullptr);
    obs::SpanTimer span(iometrics::read_time);
    parser.set_span(&span);

    // replay the attribute definitions preceding this range (see
    // read_chunk); batch emission only begins with the range's own records
    for (const MetaLine& m : meta_) {
        if (m.offset >= chunk.begin)
            break;
        if (m.kind != 'A')
            continue;
        parser.set_lineno(m.lineno - 1);
        parser.line(std::string_view(buffer_.data() + m.offset, m.size));
    }

    RecordBatch batch;
    parser.set_batch(batch, batch_size, sink);
    parser.set_lineno(chunk.first_line - 1);
    for_each_line(std::string_view(buffer_.data() + chunk.begin,
                                   chunk.end - chunk.begin),
                  [&parser](std::string_view line) { parser.line(line); });
    parser.finish();
    parser.flush_metrics(chunk.end - chunk.begin);
}

IdRecord CaliFileSource::read_globals(AttributeRegistry& registry) const {
    IdRecord globals;
    const CaliReader::IdSink noop = [](IdRecord&&) {};
    CaliParser parser(registry, noop, &globals);
    for (const MetaLine& m : meta_) {
        parser.set_lineno(m.lineno - 1);
        parser.line(std::string_view(buffer_.data() + m.offset, m.size));
    }
    return globals;
}

// -- name-based compatibility wrappers --------------------------------------

void CaliReader::read(std::istream& is, const RecordSink& sink, RecordMap* globals) {
    read_range(is, 0, UINT64_MAX, sink, globals);
}

namespace {

/// Adapt an id sink + private registry to the name-based API.
void restore_globals(const IdRecord& g, const AttributeRegistry& registry,
                     RecordMap* globals) {
    if (!globals)
        return;
    for (const Entry& e : g)
        globals->append(registry.get(e.attribute).name(), e.value);
}

} // namespace

void CaliReader::read_range(std::istream& is, std::uint64_t begin, std::uint64_t end,
                            const RecordSink& sink, RecordMap* globals) {
    AttributeRegistry registry; // private dictionary, names restored below
    IdRecord g;
    read_range(is, begin, end, registry,
               [&](IdRecord&& rec) { sink(to_recordmap(rec, registry)); },
               globals ? &g : nullptr);
    restore_globals(g, registry, globals);
}

std::vector<RecordMap> CaliReader::read_all(std::istream& is, RecordMap* globals) {
    std::vector<RecordMap> out;
    read(is, [&out](RecordMap&& r) { out.push_back(std::move(r)); }, globals);
    return out;
}

std::vector<RecordMap> CaliReader::read_file(const std::string& path,
                                             RecordMap* globals) {
    std::vector<RecordMap> out;
    read_file(path, [&out](RecordMap&& r) { out.push_back(std::move(r)); }, globals);
    return out;
}

void CaliReader::read_file(const std::string& path, const RecordSink& sink,
                           RecordMap* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    AttributeRegistry registry;
    IdRecord g;
    read_buffer(buf.view(), registry,
                [&](IdRecord&& rec) { sink(to_recordmap(rec, registry)); },
                globals ? &g : nullptr);
    restore_globals(g, registry, globals);
}

void CaliReader::read_file_range(const std::string& path, std::uint64_t begin,
                                 std::uint64_t end, const RecordSink& sink,
                                 RecordMap* globals) {
    const FileBuffer buf = FileBuffer::open(path);
    AttributeRegistry registry;
    IdRecord g;
    parse_buffer_range(buf.view(), begin, end, registry,
                       [&](IdRecord&& rec) { sink(to_recordmap(rec, registry)); },
                       globals ? &g : nullptr);
    restore_globals(g, registry, globals);
}

std::uint64_t CaliReader::count_records(const std::string& path) {
    const FileBuffer buf = FileBuffer::open(path);
    std::uint64_t n = 0;
    for_each_line(buf.view(), [&n](std::string_view line) {
        if (!line.empty() && line[0] == 'R')
            ++n;
    });
    return n;
}

Dataset Dataset::load(const std::vector<std::string>& paths) {
    Dataset ds;
    for (const std::string& path : paths) {
        RecordMap g;
        CaliReader::read_file(path, [&ds](RecordMap&& r) {
            ds.records.push_back(std::move(r));
        }, &g);
        g.append("cali.file", Variant(std::string_view(path)));
        ds.globals.push_back(std::move(g));
    }
    return ds;
}

} // namespace calib
