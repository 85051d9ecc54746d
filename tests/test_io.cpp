// calib stream format: writer/reader round trips, escaping, globals,
// snapshot writing, malformed-input errors, multi-file datasets, the
// zero-copy FileBuffer, and byte-range chunked reads (CaliFileSource).
#include "common/hash.hpp"
#include "io/calireader.hpp"
#include "io/caliwriter.hpp"
#include "io/filebuffer.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace calib;
using calib::test::record;

namespace {

std::vector<RecordMap> round_trip(const std::vector<RecordMap>& records,
                                  RecordMap* globals = nullptr) {
    std::ostringstream os;
    CaliWriter writer(os);
    for (const RecordMap& r : records)
        writer.write_record(r);
    std::istringstream is(os.str());
    return CaliReader::read_all(is, globals);
}

} // namespace

TEST(CaliStream, BasicRoundTrip) {
    auto in = std::vector<RecordMap>{
        record({{"function", Variant("main")}, {"count", Variant(3ull)}}),
        record({{"function", Variant("foo")}, {"time", Variant(2.5)}}),
    };
    auto out = round_trip(in);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].get("function"), Variant("main"));
    EXPECT_EQ(out[0].get("count").to_uint(), 3u);
    EXPECT_DOUBLE_EQ(out[1].get("time").as_double(), 2.5);
}

TEST(CaliStream, PreservesValueTypes) {
    auto out = round_trip({record({{"i", Variant(-42)},
                                   {"u", Variant(99ull)},
                                   {"d", Variant(3.25)},
                                   {"s", Variant("text")},
                                   {"b", Variant(true)}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("i").type(), Variant::Type::Int);
    EXPECT_EQ(out[0].get("u").type(), Variant::Type::UInt);
    EXPECT_EQ(out[0].get("d").type(), Variant::Type::Double);
    EXPECT_EQ(out[0].get("s").type(), Variant::Type::String);
    EXPECT_EQ(out[0].get("b").type(), Variant::Type::Bool);
    EXPECT_EQ(out[0].get("i").as_int(), -42);
}

TEST(CaliStream, EscapesSpecialCharacters) {
    auto out = round_trip({record({{"messy", Variant("a,b=c\\d\ne")},
                                   {"attr,with=specials", Variant("v")}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("messy").as_string(), "a,b=c\\d\ne");
    EXPECT_EQ(out[0].get("attr,with=specials"), Variant("v"));
}

TEST(CaliStream, TypeDriftFallsBackGracefully) {
    // same attribute first int, later double: reader recovers the double
    auto out = round_trip({record({{"v", Variant(1)}}),
                           record({{"v", Variant(2.5)}})});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].get("v").to_int(), 1);
    EXPECT_DOUBLE_EQ(out[1].get("v").to_double(), 2.5);
}

TEST(CaliStream, GlobalsAreSeparate) {
    std::ostringstream os;
    CaliWriter writer(os);
    writer.write_global("mpi.rank", Variant(7));
    writer.write_record(record({{"a", Variant(1)}}));
    EXPECT_EQ(writer.num_records(), 1u);

    RecordMap globals;
    std::istringstream is(os.str());
    auto records = CaliReader::read_all(is, &globals);
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(globals.get("mpi.rank").to_int(), 7);
}

TEST(CaliStream, WriteSnapshotResolvesNames) {
    AttributeRegistry registry;
    const Attribute fn = registry.create("function", Variant::Type::String);
    const Attribute t  = registry.create("time", Variant::Type::Double);

    SnapshotRecord snap;
    snap.append(fn.id(), Variant("kernel_a"));
    snap.append(t.id(), Variant(1.5));

    std::ostringstream os;
    CaliWriter writer(os);
    writer.write_snapshot(registry, snap);

    std::istringstream is(os.str());
    auto out = CaliReader::read_all(is);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("function"), Variant("kernel_a"));
    EXPECT_DOUBLE_EQ(out[0].get("time").as_double(), 1.5);
}

TEST(CaliStream, EmptyStreamGivesNoRecords) {
    std::istringstream is("#calib-stream v1\n");
    EXPECT_TRUE(CaliReader::read_all(is).empty());
}

TEST(CaliStream, SkipsCommentsAndBlankLines) {
    std::istringstream is("#calib-stream v1\n\n# comment\nA,0,a,int,0\nR,0=5\n");
    auto out = CaliReader::read_all(is);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("a").to_int(), 5);
}

TEST(CaliStream, ErrorOnUndefinedAttribute) {
    std::istringstream is("R,7=5\n");
    EXPECT_THROW(CaliReader::read_all(is), std::runtime_error);
}

TEST(CaliStream, ErrorOnMalformedLines) {
    for (const char* text : {"X,0=1\n", "R;0=1\n", "A,0\n", "R,0:5\nA,0,a,int,0\n"}) {
        std::istringstream is(text);
        EXPECT_THROW(CaliReader::read_all(is), std::runtime_error) << text;
    }
}

TEST(CaliStream, ByteCountTracksOutput) {
    std::ostringstream os;
    CaliWriter writer(os);
    writer.write_record(record({{"a", Variant(1)}}));
    EXPECT_EQ(writer.num_bytes(), os.str().size());
}

TEST(CaliFile, ReadWriteThroughFilesystem) {
    calib::test::TempDir dir("io");
    const std::string path = dir.file("test.cali");
    {
        std::ofstream os(path);
        CaliWriter writer(os);
        for (int i = 0; i < 100; ++i)
            writer.write_record(record({{"i", Variant(i)}, {"sq", Variant(i * i)}}));
    }
    auto records = CaliReader::read_file(path);
    ASSERT_EQ(records.size(), 100u);
    EXPECT_EQ(records[99].get("sq").to_int(), 99 * 99);

    // streaming variant sees the same records
    std::size_t streamed = 0;
    CaliReader::read_file(path, [&streamed](RecordMap&&) { ++streamed; });
    EXPECT_EQ(streamed, 100u);
}

TEST(CaliFile, MissingFileThrows) {
    EXPECT_THROW(CaliReader::read_file("/nonexistent/path.cali"), std::runtime_error);
}

TEST(CaliStream, CrlfLineEndingsParseIdentically) {
    const char* lf   = "A,0,a,int,0\nA,1,s,string,0\nR,0=5,1=x\nG,0=7\nR,0=6\n";
    const char* crlf = "A,0,a,int,0\r\nA,1,s,string,0\r\nR,0=5,1=x\r\nG,0=7\r\nR,0=6\r\n";

    RecordMap g_lf, g_crlf;
    std::istringstream is_lf(lf), is_crlf(crlf);
    const auto out_lf   = CaliReader::read_all(is_lf, &g_lf);
    const auto out_crlf = CaliReader::read_all(is_crlf, &g_crlf);
    ASSERT_EQ(out_crlf.size(), 2u);
    ASSERT_EQ(out_lf.size(), out_crlf.size());
    EXPECT_EQ(out_crlf[0].get("a").to_int(), 5);
    EXPECT_EQ(out_crlf[0].get("s"), Variant("x"));
    EXPECT_EQ(g_crlf.get("a").to_int(), 7);
    EXPECT_EQ(g_lf.get("a"), g_crlf.get("a"));
}

TEST(CaliFile, CrlfFileParsesIdentically) {
    calib::test::TempDir dir("io-crlf");
    const std::string path = dir.file("crlf.cali");
    {
        std::ofstream os(path, std::ios::binary);
        os << "A,0,a,int,0\r\nR,0=1\r\nR,0=2\r\n";
    }
    const auto out = CaliReader::read_file(path); // buffer line walker
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].get("a").to_int(), 1);
    EXPECT_EQ(out[1].get("a").to_int(), 2);
}

TEST(ReaderMetrics, BytesCountActualInputConsumed) {
    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
    const auto& reg = obs::MetricsRegistry::instance();

    // no trailing newline: the final line must not be overcounted
    const std::string text = "A,0,a,int,0\nR,0=1"; // 17 bytes
    {
        std::istringstream is(text);
        CaliReader::read_all(is);
    }
    EXPECT_EQ(reg.value("reader.bytes"), static_cast<std::int64_t>(text.size()));

    // CRLF input: both bytes of each line ending count as consumed
    obs::MetricsRegistry::instance().reset();
    const std::string crlf = "A,0,a,int,0\r\nR,0=1\r\n"; // 20 bytes
    {
        std::istringstream is(crlf);
        CaliReader::read_all(is);
    }
    EXPECT_EQ(reg.value("reader.bytes"), static_cast<std::int64_t>(crlf.size()));

    // buffer path: bytes = buffer size
    obs::MetricsRegistry::instance().reset();
    AttributeRegistry registry;
    CaliReader::read_buffer(text, registry, [](IdRecord&&) {});
    EXPECT_EQ(reg.value("reader.bytes"), static_cast<std::int64_t>(text.size()));
    obs::set_enabled(false);
}

TEST(CaliFile, CountRecordsSkipsMetaLines) {
    calib::test::TempDir dir("io-count");
    const std::string path = dir.file("c.cali");
    {
        std::ofstream os(path);
        // comments, definitions, globals, an empty record, no final newline
        os << "#calib-stream v1\nA,0,a,int,0\nG,0=1\nR,0=1\nR\n\nR,0=2";
    }
    EXPECT_EQ(CaliReader::count_records(path), 3u);
}

TEST(CaliFile, ReadFileRangeNameShim) {
    calib::test::TempDir dir("io-range");
    const std::string path = dir.file("r.cali");
    {
        std::ofstream os(path);
        CaliWriter writer(os);
        for (int i = 0; i < 10; ++i)
            writer.write_record(record({{"i", Variant(i)}}));
        // globals after the requested range must still be seen
        writer.write_global("mpi.rank", Variant(3));
    }
    RecordMap globals;
    std::vector<RecordMap> out;
    CaliReader::read_file_range(path, 2, 5,
                                [&out](RecordMap&& r) { out.push_back(std::move(r)); },
                                &globals);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out.front().get("i").to_int(), 2);
    EXPECT_EQ(out.back().get("i").to_int(), 4);
    EXPECT_EQ(globals.get("mpi.rank").to_int(), 3);
}

// --------------------------------------------------- malformed-input errors

namespace {

/// The reader must reject \a text with a message carrying the 1-based line
/// number \a line and the substring \a what.
void expect_parse_error(const std::string& text, int line, const std::string& what) {
    AttributeRegistry registry;
    try {
        CaliReader::read_buffer(text, registry, [](IdRecord&&) {});
        FAIL() << "no error for: " << text;
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line " + std::to_string(line)), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

} // namespace

TEST(CaliStream, ErrorOnTruncatedFinalLine) {
    // a record cut off mid-field (no '=' yet, no trailing newline)
    expect_parse_error("A,0,a,int,0\nR,0=1\nR,0", 3, "missing '='");
}

TEST(CaliStream, ErrorOnBadEscapeAtEndOfField) {
    expect_parse_error("A,0,s,string,0\nR,0=abc\\", 2, "bad escape");
    expect_parse_error("A,0,s\\", 1, "bad escape");
}

TEST(CaliStream, ErrorOnUndefinedAttributeCarriesLineNumber) {
    expect_parse_error("A,0,a,int,0\nR,0=1\nR,7=5\n", 3, "undefined attribute 7");
}

// ------------------------------------------------------------- file buffer

TEST(FileBuffer, MapsRegularFiles) {
    calib::test::TempDir dir("fb-map");
    const std::string path = dir.file("f.txt");
    {
        std::ofstream os(path);
        os << "hello\nworld\n";
    }
    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
    {
        const FileBuffer buf = FileBuffer::open(path);
        EXPECT_EQ(buf.view(), "hello\nworld\n");
        if (FileBuffer::mmap_enabled()) {
            EXPECT_TRUE(buf.mapped());
            // the gauge tracks currently-mapped bytes
            EXPECT_EQ(obs::MetricsRegistry::instance().value("reader.mmap"),
                      static_cast<std::int64_t>(buf.size()));
        }
    }
    // released on destruction
    EXPECT_EQ(obs::MetricsRegistry::instance().value("reader.mmap"), 0);
    obs::set_enabled(false);
}

TEST(FileBuffer, FallbackBufferWhenMmapDisabled) {
    calib::test::TempDir dir("fb-nomap");
    const std::string path = dir.file("f.txt");
    {
        std::ofstream os(path);
        os << "payload";
    }
    FileBuffer::set_mmap_enabled(false);
    const FileBuffer buf = FileBuffer::open(path);
    FileBuffer::set_mmap_enabled(true);
    EXPECT_FALSE(buf.mapped());
    EXPECT_EQ(buf.view(), "payload");
}

TEST(FileBuffer, EmptyFileGivesEmptyView) {
    calib::test::TempDir dir("fb-empty");
    const std::string path = dir.file("empty.cali");
    { std::ofstream os(path); }
    const FileBuffer buf = FileBuffer::open(path);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_FALSE(buf.mapped()); // nothing to map
    // and an empty file is a valid (empty) stream
    EXPECT_TRUE(CaliReader::read_file(path).empty());
}

TEST(FileBuffer, MissingFileThrows) {
    EXPECT_THROW(FileBuffer::open("/nonexistent/file"), std::runtime_error);
}

TEST(FileBuffer, MoveKeepsViewValid) {
    FileBuffer a = FileBuffer::from_string("short"); // SSO: storage relocates
    FileBuffer b = std::move(a);
    EXPECT_EQ(b.view(), "short");
    FileBuffer c = FileBuffer::from_string(std::string(1024, 'x'));
    b = std::move(c);
    EXPECT_EQ(b.size(), 1024u);
    EXPECT_EQ(b.view().front(), 'x');
}

// ------------------------------------------------------ byte-range source

namespace {

/// Read every chunk of \a source in order via the name-based conversion
/// used by the tests (registry lookups), returning flattened records.
std::vector<RecordMap> read_all_chunks(const CaliFileSource& source) {
    AttributeRegistry registry;
    std::vector<RecordMap> out;
    for (std::size_t i = 0; i < source.chunks().size(); ++i)
        source.read_chunk(i, registry, [&](IdRecord&& r) {
            out.push_back(to_recordmap(r, registry));
        });
    return out;
}

} // namespace

TEST(CaliFileSource, ChunkedReadEqualsSequentialRead) {
    calib::test::TempDir dir("src-eq");
    const std::string path = dir.file("f.cali");
    {
        std::ofstream os(path);
        CaliWriter writer(os);
        for (int i = 0; i < 500; ++i)
            writer.write_record(record({{"i", Variant(i)}, {"sq", Variant(i * i)}}));
    }
    const CaliFileSource source(path, 1024);
    ASSERT_GE(source.chunks().size(), 2u);
    EXPECT_EQ(source.num_records(), 500u);

    const auto chunked    = read_all_chunks(source);
    const auto sequential = CaliReader::read_file(path);
    ASSERT_EQ(chunked.size(), sequential.size());
    for (std::size_t i = 0; i < chunked.size(); ++i) {
        EXPECT_EQ(chunked[i].get("i"), sequential[i].get("i"));
        EXPECT_EQ(chunked[i].get("sq"), sequential[i].get("sq"));
    }
}

TEST(CaliFileSource, MidFileRedefinitionReplaysInOrder) {
    calib::test::TempDir dir("src-redef");
    const std::string path = dir.file("f.cali");
    {
        std::ofstream os(path);
        // local id 0 is "x" for the first half, then redefined to "y";
        // chunk replay must apply definitions in file order (last wins)
        os << "A,0,x,int,0\n";
        for (int i = 0; i < 100; ++i)
            os << "R,0=" << i << "\n";
        os << "A,0,y,int,0\n";
        for (int i = 100; i < 200; ++i)
            os << "R,0=" << i << "\n";
    }
    const CaliFileSource source(path, 256);
    ASSERT_GE(source.chunks().size(), 3u);

    const auto chunked    = read_all_chunks(source);
    const auto sequential = CaliReader::read_file(path);
    ASSERT_EQ(chunked.size(), 200u);
    for (std::size_t i = 0; i < chunked.size(); ++i) {
        EXPECT_EQ(chunked[i].get("x"), sequential[i].get("x"));
        EXPECT_EQ(chunked[i].get("y"), sequential[i].get("y"));
    }
    EXPECT_EQ(chunked[0].get("x").to_int(), 0);
    EXPECT_TRUE(chunked[0].get("y").empty());
    EXPECT_EQ(chunked[199].get("y").to_int(), 199);
    EXPECT_TRUE(chunked[199].get("x").empty());
}

TEST(CaliFileSource, GlobalsAnywhereInFile) {
    calib::test::TempDir dir("src-glob");
    const std::string path = dir.file("f.cali");
    {
        std::ofstream os(path);
        os << "A,0,first,int,0\nG,0=1\n";
        for (int i = 0; i < 50; ++i)
            os << "R,0=" << i << "\n";
        os << "A,1,last,int,0\nG,1=2\n"; // a global at the end of the file
    }
    const CaliFileSource source(path, 128);
    ASSERT_GE(source.chunks().size(), 2u);
    EXPECT_TRUE(source.has_globals());

    AttributeRegistry registry;
    const IdRecord globals = source.read_globals(registry);
    const RecordMap named  = to_recordmap(globals, registry);
    EXPECT_EQ(named.get("first").to_int(), 1);
    EXPECT_EQ(named.get("last").to_int(), 2);
}

TEST(CaliFileSource, ChunkErrorsCarryWholeFileLineNumbers) {
    calib::test::TempDir dir("src-err");
    const std::string path = dir.file("f.cali");
    {
        std::ofstream os(path);
        os << "A,0,a,int,0\n";
        for (int i = 0; i < 100; ++i)
            os << "R,0=" << i << "\n";
        os << "R,9=1\n"; // line 102: undefined attribute, deep in the file
    }
    const CaliFileSource source(path, 256);
    ASSERT_GE(source.chunks().size(), 2u);
    AttributeRegistry registry;
    const std::size_t last = source.chunks().size() - 1;
    try {
        source.read_chunk(last, registry, [](IdRecord&&) {});
        FAIL() << "no error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 102"), std::string::npos)
            << e.what();
    }
}

TEST(Dataset, LoadsMultipleFilesWithGlobals) {
    calib::test::TempDir dir("dataset");
    std::vector<std::string> paths;
    for (int rank = 0; rank < 3; ++rank) {
        const std::string path = dir.file("rank-" + std::to_string(rank) + ".cali");
        std::ofstream os(path);
        CaliWriter writer(os);
        writer.write_global("mpi.rank", Variant(rank));
        writer.write_record(record({{"rank", Variant(rank)}}));
        writer.write_record(record({{"rank", Variant(rank)}}));
        paths.push_back(path);
    }
    Dataset ds = Dataset::load(paths);
    EXPECT_EQ(ds.records.size(), 6u);
    ASSERT_EQ(ds.globals.size(), 3u);
    EXPECT_EQ(ds.globals[1].get("mpi.rank").to_int(), 1);
    EXPECT_EQ(ds.globals[2].get("cali.file"), Variant(paths[2]));
}

// ---- numeric-correctness hardening regressions (differential fuzzing) ----

TEST(CaliStream, CarriageReturnValuesSurviveRoundTrip) {
    // a raw CR ending a line would be eaten by the reader's CRLF
    // tolerance; the writer must escape it as \r
    auto out = round_trip({record({{"s", Variant("ends with cr\r")},
                                   {"t", Variant("cr\rlf\nmix")}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get("s").to_string(), "ends with cr\r");
    EXPECT_EQ(out[0].get("t").to_string(), "cr\rlf\nmix");
}

TEST(CaliStream, SubnormalDoublesSurviveRoundTrip) {
    auto out = round_trip({record({{"d", Variant(5e-324)},
                                   {"e", Variant(-5e-324)},
                                   {"z", Variant(-0.0)}})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].get("d") == Variant(5e-324));
    EXPECT_TRUE(out[0].get("e") == Variant(-5e-324));
    EXPECT_TRUE(out[0].get("z") == Variant(-0.0)); // bitwise: sign survives
}

TEST(CaliStream, IntegerInDoubleColumnKeepsLowBits) {
    // a column typed double by its first record can later carry an exact
    // int64 (sum widening): the value must not round through double
    auto out = round_trip({record({{"v", Variant(0.5)}}),
                           record({{"v", Variant(9223372036854775807ll)}})});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].get("v").as_int(), 9223372036854775807ll);
}

TEST(CaliStream, EmptyStringInTypedColumnStaysString) {
    auto out = round_trip({record({{"v", Variant(1.5)}}),
                           record({{"v", Variant("")}})});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].get("v").type(), Variant::Type::String);
    EXPECT_EQ(out[1].get("v").to_string(), "");
}

TEST(CaliStream, EmptyValuesAreOmittedOnWrite) {
    std::ostringstream os;
    CaliWriter writer(os);
    writer.write_record(record({{"a", Variant(1)}, {"b", Variant()}}));
    std::istringstream is(os.str());
    auto out = CaliReader::read_all(is);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].size(), 1u); // "b" never written
    EXPECT_EQ(out[0].get("a").as_int(), 1);
}

// ---- the string cache in the .cali reader -------------------------------
//
// Every case reads through the record entry point and the batched one,
// and must give exactly the values a plain parse gives: the same typed
// values, and the same bytes when written back out.

namespace {

struct ReadBoth {
    std::vector<RecordMap> records, batched;
};

ReadBoth read_both(const std::string& text) {
    ReadBoth out;
    {
        AttributeRegistry registry;
        CaliReader::read_buffer(text, registry, [&](IdRecord&& r) {
            out.records.push_back(to_recordmap(r, registry));
        });
    }
    {
        AttributeRegistry registry;
        IdRecord row;
        // batch size 7: batches end mid-stream and mid-cycle
        CaliReader::read_buffer_batches(text, registry, 7, [&](RecordBatch& b) {
            for (std::size_t i = 0; i < b.rows(); ++i) {
                b.materialize(i, row);
                out.batched.push_back(to_recordmap(row, registry));
            }
        });
    }
    return out;
}

std::string write_all(const std::vector<RecordMap>& records) {
    std::ostringstream os;
    CaliWriter writer(os);
    for (const RecordMap& r : records)
        writer.write_record(r);
    return os.str();
}

void expect_reads_as(const std::string& text, const std::vector<RecordMap>& expected) {
    const ReadBoth got = read_both(text);
    const std::string want = write_all(expected);
    for (const auto* path : {&got.records, &got.batched}) {
        const char* name = path == &got.records ? "record path" : "batch path";
        ASSERT_EQ(path->size(), expected.size()) << name;
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_TRUE((*path)[i] == expected[i]) << name << ", record " << i;
        EXPECT_EQ(write_all(*path), want) << name;
    }
}

/// A one-column string stream over \a values, as CaliWriter writes it.
std::vector<RecordMap> string_column(const std::vector<std::string>& values) {
    std::vector<RecordMap> records;
    for (std::size_t i = 0; i < values.size(); ++i)
        records.push_back(record({{"name", Variant(values[i])},
                                  {"i", Variant(static_cast<long long>(i))}}));
    return records;
}

std::int64_t counter(const char* name) {
    return obs::MetricsRegistry::instance().value(name);
}

} // namespace

TEST(ReaderStringCache, MoreDistinctValuesThanSlots) {
    // 10 000 distinct names, far more than the cache holds, visited three
    // times in three different orders
    std::vector<std::string> names;
    for (int i = 0; i < 10000; ++i)
        names.push_back("region-" + std::to_string(i * 7919 % 10007));
    std::vector<std::string> values = names;
    values.insert(values.end(), names.rbegin(), names.rend());
    for (std::size_t i = 0; i < names.size(); ++i)
        values.push_back(names[i * 37 % names.size()]);
    const auto expected = string_column(values);
    const std::string text = write_all(expected);

    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
    expect_reads_as(text, expected);
    // every string field is either a cache hit or an intern, on both paths
    EXPECT_EQ(counter("reader.value_cache_hits") + counter("reader.string_interns"),
              static_cast<std::int64_t>(2 * values.size()));
    EXPECT_GT(counter("reader.string_interns"),
              static_cast<std::int64_t>(2 * names.size()));
    obs::set_enabled(false);
}

TEST(ReaderStringCache, ValuesSharingASlotEvictEachOther) {
    // the reader picks a cache slot from the low bits of mix64(fnv1a(raw)):
    // two names that agree in the low 16 bits share a slot in any table of
    // up to 65 536 slots, so alternating them misses on every field
    std::unordered_map<std::uint64_t, std::string> seen;
    std::string a, b;
    for (int i = 0; b.empty(); ++i) {
        std::string name = "kernel-" + std::to_string(i);
        const auto [it, fresh] = seen.emplace(mix64(fnv1a(name)) & 0xffff, name);
        if (!fresh) {
            a = it->second;
            b = name;
        }
    }
    std::vector<std::string> values;
    for (int i = 0; i < 100; ++i) {
        values.push_back(a);
        values.push_back(b);
    }
    // then one name repeated: a miss, then hits
    values.insert(values.end(), 50, a);
    const auto expected = string_column(values);

    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
    expect_reads_as(write_all(expected), expected);
    // per path: 200 alternating misses and one more for the run of a
    EXPECT_EQ(counter("reader.string_interns"), 2 * 201);
    EXPECT_EQ(counter("reader.value_cache_hits"), 2 * 49);
    obs::set_enabled(false);
}

TEST(ReaderStringCache, EscapedFieldEqualToCachedValue) {
    // "k\ernel" unescapes to "kernel": the escaped field takes the
    // unescape path, and both spellings must give the same interned value
    const std::string text = "A,0,name,string,0\n"
                             "R,0=kernel\n"
                             "R,0=k\\ernel\n"
                             "R,0=kernel\n"
                             "R,0=a\\,b\n"
                             "R,0=a\n"
                             "R,0=a\\,b\n"
                             "R,0=k\\ernel\n";
    std::vector<RecordMap> expected;
    for (const char* v : {"kernel", "kernel", "kernel", "a,b", "a", "a,b", "kernel"})
        expected.push_back(record({{"name", Variant(v)}}));
    obs::set_enabled(true);
    obs::MetricsRegistry::instance().reset();
    const ReadBoth got = read_both(text);
    // every string field is counted once, as a hit or as an intern
    EXPECT_EQ(counter("reader.value_cache_hits") + counter("reader.string_interns"),
              2 * 7);
    obs::set_enabled(false);
    expect_reads_as(text, expected);
    EXPECT_EQ(got.records[1].get("name").as_cstr(),
              got.records[0].get("name").as_cstr()); // one pooled string
}

TEST(ReaderStringCache, RedefinitionWithAnotherTypeMidStream) {
    // local id 0 is a string column, then an int column, then a string
    // column again: the memo may not carry a value across a redefinition,
    // and the string cache, shared by the parse, serves only fields of a
    // string attribute
    const std::string text = "A,0,s,string,0\n"
                             "R,0=12\n"
                             "R,0=alpha\n"
                             "R,0=12\n"
                             "A,0,n,int,0\n"
                             "R,0=12\n"
                             "R,0=alpha\n"
                             "R,0=12\n"
                             "A,0,d,double,0\n"
                             "R,0=12\n"
                             "R,0=12.5\n"
                             "R,0=alpha\n"
                             "A,0,t,string,0\n"
                             "R,0=12.5\n"
                             "R,0=12\n"
                             "R,0=alpha\n";
    const std::vector<RecordMap> expected = {
        record({{"s", Variant("12")}}),   record({{"s", Variant("alpha")}}),
        record({{"s", Variant("12")}}),   record({{"n", Variant(12)}}),
        record({{"n", Variant("alpha")}}), record({{"n", Variant(12)}}),
        record({{"d", Variant(12.0)}}),   record({{"d", Variant(12.5)}}),
        record({{"d", Variant("alpha")}}),
        record({{"t", Variant("12.5")}}), record({{"t", Variant("12")}}),
        record({{"t", Variant("alpha")}}),
    };
    expect_reads_as(text, expected);
}
