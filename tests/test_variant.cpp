#include "common/variant.hpp"
#include "io/calireader.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

using calib::Variant;

TEST(Variant, DefaultIsEmpty) {
    Variant v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.type(), Variant::Type::Empty);
    EXPECT_FALSE(v.is_numeric());
    EXPECT_EQ(v.to_string(), "");
}

TEST(Variant, IntConstructionAndAccess) {
    Variant v(42);
    EXPECT_EQ(v.type(), Variant::Type::Int);
    EXPECT_TRUE(v.is_numeric());
    EXPECT_EQ(v.as_int(), 42);
    EXPECT_EQ(v.to_double(), 42.0);
    EXPECT_EQ(v.to_string(), "42");
}

TEST(Variant, NegativeInt) {
    Variant v(-17LL);
    EXPECT_EQ(v.as_int(), -17);
    EXPECT_EQ(v.to_uint(), 0u) << "negative clamps to 0 in unsigned conversion";
}

TEST(Variant, UIntConstruction) {
    Variant v(18446744073709551615ull);
    EXPECT_EQ(v.type(), Variant::Type::UInt);
    EXPECT_EQ(v.as_uint(), 18446744073709551615ull);
}

TEST(Variant, DoubleConstruction) {
    Variant v(2.5);
    EXPECT_EQ(v.type(), Variant::Type::Double);
    EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
    EXPECT_EQ(v.to_int(), 2);
}

TEST(Variant, BoolConstruction) {
    EXPECT_TRUE(Variant(true).as_bool());
    EXPECT_FALSE(Variant(false).as_bool());
    EXPECT_EQ(Variant(true).to_string(), "true");
    EXPECT_EQ(Variant(true).to_double(), 1.0);
}

TEST(Variant, StringInterning) {
    Variant a("hello");
    Variant b(std::string("hello"));
    EXPECT_EQ(a.type(), Variant::Type::String);
    // interned: identical strings share the pointer
    EXPECT_EQ(a.as_cstr(), b.as_cstr());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.as_string(), "hello");
}

TEST(Variant, EmptyStringIsNotEmptyVariant) {
    Variant v("");
    EXPECT_FALSE(v.empty());
    EXPECT_TRUE(v.is_string());
    EXPECT_FALSE(v.to_bool());
}

TEST(Variant, EqualityIsTypeStrict) {
    EXPECT_NE(Variant(1), Variant(1.0));
    EXPECT_NE(Variant(1), Variant("1"));
    EXPECT_EQ(Variant(1), Variant(1));
}

TEST(Variant, CompareNumericAcrossTypes) {
    EXPECT_EQ(Variant(1).compare(Variant(1.0)), 0);
    EXPECT_LT(Variant(1).compare(Variant(2u)), 0);
    EXPECT_GT(Variant(3.5).compare(Variant(3)), 0);
}

TEST(Variant, CompareStringsLexicographic) {
    EXPECT_LT(Variant("abc").compare(Variant("abd")), 0);
    EXPECT_EQ(Variant("x").compare(Variant("x")), 0);
    EXPECT_GT(Variant("zz").compare(Variant("za")), 0);
}

TEST(Variant, CompareLargeIntegersExactly) {
    // values not representable exactly in double must still compare correctly
    const long long a = (1LL << 62) + 1;
    const long long b = (1LL << 62) + 2;
    EXPECT_LT(Variant(a).compare(Variant(b)), 0);
}

TEST(Variant, ParseTyped) {
    EXPECT_EQ(Variant::parse(Variant::Type::Int, "123").as_int(), 123);
    EXPECT_EQ(Variant::parse(Variant::Type::Int, "-5").as_int(), -5);
    EXPECT_TRUE(Variant::parse(Variant::Type::Int, "12x").empty());
    EXPECT_DOUBLE_EQ(Variant::parse(Variant::Type::Double, "2.5e3").as_double(), 2500.0);
    EXPECT_TRUE(Variant::parse(Variant::Type::Double, "abc").empty());
    EXPECT_TRUE(Variant::parse(Variant::Type::Bool, "true").as_bool());
    EXPECT_FALSE(Variant::parse(Variant::Type::Bool, "0").as_bool());
    EXPECT_EQ(Variant::parse(Variant::Type::String, "abc").as_string(), "abc");
    EXPECT_EQ(Variant::parse(Variant::Type::UInt, "99").as_uint(), 99u);
    EXPECT_TRUE(Variant::parse(Variant::Type::UInt, "-1").empty());
}

TEST(Variant, ParseGuess) {
    EXPECT_EQ(Variant::parse_guess("42").type(), Variant::Type::Int);
    EXPECT_EQ(Variant::parse_guess("42.5").type(), Variant::Type::Double);
    EXPECT_EQ(Variant::parse_guess("true").type(), Variant::Type::Bool);
    EXPECT_EQ(Variant::parse_guess("foo").type(), Variant::Type::String);
    EXPECT_EQ(Variant::parse_guess("").type(), Variant::Type::String);
    EXPECT_EQ(Variant::parse_guess("1e9").type(), Variant::Type::Double);
}

TEST(Variant, ToStringRoundTripsDoubles) {
    const double values[] = {0.0, 1.5, -3.25, 1e-9, 123456.789};
    for (double d : values) {
        Variant v(d);
        Variant parsed = Variant::parse(Variant::Type::Double, v.to_string());
        EXPECT_DOUBLE_EQ(parsed.as_double(), d);
    }
}

TEST(Variant, HashDistinguishesTypesAndValues) {
    EXPECT_NE(Variant(1).hash(), Variant(2).hash());
    EXPECT_NE(Variant(1).hash(), Variant(1.0).hash());
    EXPECT_NE(Variant("a").hash(), Variant("b").hash());
    EXPECT_EQ(Variant("same").hash(), Variant("same").hash());
    EXPECT_EQ(Variant(7).hash(), Variant(7).hash());
}

TEST(Variant, TypeNames) {
    EXPECT_STREQ(Variant::type_name(Variant::Type::Int), "int");
    EXPECT_EQ(Variant::type_from_name("double"), Variant::Type::Double);
    EXPECT_EQ(Variant::type_from_name("bogus"), Variant::Type::Empty);
    // round-trip all types
    for (auto t : {Variant::Type::Bool, Variant::Type::Int, Variant::Type::UInt,
                   Variant::Type::Double, Variant::Type::String})
        EXPECT_EQ(Variant::type_from_name(Variant::type_name(t)), t);
}

TEST(Variant, TruthinessConversions) {
    EXPECT_TRUE(Variant(1).to_bool());
    EXPECT_FALSE(Variant(0).to_bool());
    EXPECT_TRUE(Variant(0.5).to_bool());
    EXPECT_TRUE(Variant("x").to_bool());
    EXPECT_FALSE(Variant().to_bool());
}

TEST(Variant, OrderingOperatorMatchesCompare) {
    EXPECT_TRUE(Variant(1) < Variant(2));
    EXPECT_FALSE(Variant(2) < Variant(1));
    EXPECT_TRUE(Variant("a") < Variant("b"));
}

// ---- numeric-correctness hardening regressions (differential fuzzing) ----

TEST(Variant, CompareIsExactAbove2To53) {
    // 2^53 and 2^53+1 collapse to the same double; exact compare must not
    const long long big = (1ll << 53);
    EXPECT_LT(Variant(big).compare(Variant(big + 1)), 0);
    EXPECT_GT(Variant(big + 1).compare(Variant(big)), 0);
    EXPECT_EQ(Variant(static_cast<double>(big)).compare(Variant(big)), 0);
    // the double one ULP above 2^53 sits strictly between 2^53+1 and 2^53+3
    const double above = std::nextafter(static_cast<double>(big), 1e300);
    EXPECT_GT(Variant(above).compare(Variant(big + 1)), 0);
    EXPECT_LT(Variant(above).compare(Variant(big + 3)), 0);
}

TEST(Variant, CompareUIntAboveInt64Max) {
    const unsigned long long huge = 0xFFFFFFFFFFFFFFFFull;
    EXPECT_GT(Variant(huge).compare(Variant(-1ll)), 0);
    EXPECT_GT(Variant(huge).compare(Variant(1.0e18)), 0);
    EXPECT_GT(Variant(huge).compare(Variant(1.0e19)), 0);
    EXPECT_LT(Variant(huge).compare(Variant(2.0e19)), 0); // 2e19 > 2^64-1
    EXPECT_GT(Variant(huge).compare(Variant(9.0e18)), 0);
}

TEST(Variant, CompareTotalOrderWithNaN) {
    const Variant nan(std::nan(""));
    // NaN sorts after every number and equals itself: a total order, so
    // sorting rows with NaN cells is deterministic
    EXPECT_GT(nan.compare(Variant(1e308)), 0);
    EXPECT_GT(nan.compare(Variant(-1e308)), 0);
    EXPECT_EQ(nan.compare(Variant(std::nan(""))), 0);
    EXPECT_LT(Variant(0).compare(nan), 0);
}

TEST(Variant, EqualityIsBitwiseForDoubles) {
    // identity semantics: == must agree with hash() for grouping keys
    EXPECT_TRUE(Variant(std::nan("")) == Variant(std::nan("")));
    EXPECT_FALSE(Variant(0.0) == Variant(-0.0));
    EXPECT_EQ(Variant(0.0).compare(Variant(-0.0)), 0); // but they order equal
}

TEST(Variant, ToReprRoundTripsEveryDouble) {
    for (double d : {5e-324, -5e-324, 1.7976931348623157e308,
                     2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e16 + 2.0,
                     -0.0, 1e300}) {
        const Variant v(d);
        const Variant back = Variant::parse(Variant::Type::Double, v.to_repr());
        ASSERT_EQ(back.type(), Variant::Type::Double) << v.to_repr();
        EXPECT_TRUE(back == v) << v.to_repr(); // bitwise, so -0.0 survives
    }
}

TEST(Variant, ParseAcceptsSubnormals) {
    // strtod flags subnormals with ERANGE although it returns the correctly
    // rounded value; parse must not reject them (found by calib-fuzz)
    const Variant v = Variant::parse(Variant::Type::Double, "5e-324");
    ASSERT_EQ(v.type(), Variant::Type::Double);
    EXPECT_EQ(v.as_double(), 5e-324);
    EXPECT_EQ(Variant::parse_guess("4.9e-324").type(), Variant::Type::Double);
    // genuine overflow still fails the typed parse
    EXPECT_TRUE(Variant::parse(Variant::Type::Double, "1e999").empty());
}

TEST(Variant, ParseGuessKeepsLargeUIntExact) {
    const Variant v = Variant::parse_guess("18446744073709551615");
    ASSERT_EQ(v.type(), Variant::Type::UInt);
    EXPECT_EQ(v.as_uint(), 0xFFFFFFFFFFFFFFFFull);
    const Variant w = Variant::parse_guess("9223372036854775808");
    ASSERT_EQ(w.type(), Variant::Type::UInt);
    EXPECT_EQ(w.as_uint(), 9223372036854775808ull);
}

// ---- the number grammar (docs/FORMAT.md, "Numbers") ----------------------
//
// One row per grammar rule. Expected doubles are compared bit for bit, so
// a row pins the sign of zero and the exact rounding, not just the value.

namespace {

std::uint64_t bits_of(double d) {
    std::uint64_t b;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

enum class Want { Reject, Int, UInt, Double, NaN };

struct GrammarRow {
    Variant::Type type;
    const char* text;
    Want want;
    long long i       = 0;
    unsigned long long u = 0;
    double d          = 0.0;
};

GrammarRow rej(Variant::Type t, const char* s) { return {t, s, Want::Reject}; }
GrammarRow int_(const char* s, long long v) {
    return {Variant::Type::Int, s, Want::Int, v};
}
GrammarRow uint_(const char* s, unsigned long long v) {
    return {Variant::Type::UInt, s, Want::UInt, 0, v};
}
GrammarRow dbl(const char* s, double v) {
    return {Variant::Type::Double, s, Want::Double, 0, 0, v};
}
GrammarRow nan_(const char* s) { return {Variant::Type::Double, s, Want::NaN}; }

constexpr auto I = Variant::Type::Int;
constexpr auto U = Variant::Type::UInt;
constexpr auto D = Variant::Type::Double;

void expect_row(const Variant& v, const GrammarRow& row, const std::string& where) {
    switch (row.want) {
    case Want::Reject:
        EXPECT_TRUE(v.empty()) << where << " parsed as " << v.to_repr();
        return;
    case Want::Int:
        ASSERT_EQ(v.type(), Variant::Type::Int) << where;
        EXPECT_EQ(v.as_int(), row.i) << where;
        return;
    case Want::UInt:
        ASSERT_EQ(v.type(), Variant::Type::UInt) << where;
        EXPECT_EQ(v.as_uint(), row.u) << where;
        return;
    case Want::Double:
        ASSERT_EQ(v.type(), Variant::Type::Double) << where;
        EXPECT_EQ(bits_of(v.as_double()), bits_of(row.d))
            << where << " gave " << v.to_repr();
        return;
    case Want::NaN:
        ASSERT_EQ(v.type(), Variant::Type::Double) << where;
        EXPECT_TRUE(std::isnan(v.as_double())) << where;
        return;
    }
}

const std::vector<GrammarRow>& typed_grammar() {
    static const std::vector<GrammarRow> rows = {
        // int: optional '-', decimal digits, nothing else
        int_("0", 0), int_("-0", 0), int_("42", 42), int_("-42", -42),
        int_("007", 7),
        int_("9223372036854775807", 9223372036854775807ll),
        int_("-9223372036854775808", -9223372036854775807ll - 1),
        rej(I, "9223372036854775808"),  // overflow
        rej(I, "+42"), rej(I, " 42"), rej(I, "42 "), rej(I, "42x"),
        rej(I, "0x10"), rej(I, "1.0"), rej(I, "1e3"), rej(I, ""), rej(I, "-"),
        // uint: decimal digits only, no sign at all
        uint_("0", 0), uint_("42", 42),
        uint_("18446744073709551615", 18446744073709551615ull),
        rej(U, "18446744073709551616"), // overflow
        rej(U, "-0"), rej(U, "-1"), rej(U, "+1"), rej(U, " 1"), rej(U, "1 "),
        rej(U, "0x10"), rej(U, ""),
        // double: decimal forms
        dbl("1.5", 1.5), dbl("0", 0.0), dbl("42", 42.0), dbl(".5", 0.5),
        dbl("5.", 5.0), dbl("1e3", 1000.0), dbl("1E3", 1000.0),
        dbl("1e+3", 1000.0), dbl("1e-3", 0.001), dbl("007.25", 7.25),
        dbl("0.1000000000000000055511151231257827", 0.1),
        dbl("2.5000000000000000000001", 2.5), // 23 significant digits
        dbl("0.30000000000000004", 0.30000000000000004),
        // negative zero keeps its sign
        dbl("-0", -0.0), dbl("-0.0", -0.0), dbl("-0e10", -0.0),
        // subnormals are exact, underflow rounds to a (signed) zero
        dbl("5e-324", 5e-324), dbl("4.9406564584124654e-324", 5e-324),
        dbl("2.2250738585072009e-308", 2.2250738585072009e-308),
        dbl("1e-400", 0.0), dbl("-1e-400", -0.0), dbl("2e-324", 0.0),
        dbl("1e-99999999999999999999", 0.0),
        // the largest finite value parses; anything that rounds to
        // infinity is an overflow and is rejected
        dbl("1.7976931348623157e308", 1.7976931348623157e308),
        rej(D, "1.7976931348623159e308"), rej(D, "1e400"), rej(D, "-1e400"),
        rej(D, "1e99999999999999999999"),
        // infinities and NaNs, in any case, with an optional NaN payload
        dbl("inf", HUGE_VAL), dbl("-inf", -HUGE_VAL), dbl("INF", HUGE_VAL),
        dbl("infinity", HUGE_VAL), dbl("-Infinity", -HUGE_VAL),
        nan_("nan"), nan_("-nan"), nan_("NaN"), nan_("nan(123)"), nan_("nan()"),
        // strtod extras: leading '+', hex floats, leading whitespace
        dbl("+1.5", 1.5), dbl("+0", 0.0), dbl("+inf", HUGE_VAL),
        dbl("0x1p3", 8.0), dbl("0X10", 16.0), dbl("0x1.8p1", 3.0),
        dbl("-0x1p-1074", -5e-324), dbl(" 1.5", 1.5), dbl("\t\n1.5", 1.5),
        // trailing whitespace and trailing garbage are rejected
        rej(D, "1.5 "), rej(D, "1.5x"), rej(D, "1.5e"), rej(D, "1.5e+"),
        rej(D, "1,5"), rej(D, "--1"), rej(D, "e5"), rej(D, "."), rej(D, "abc"),
        rej(D, "0x"), rej(D, "infx"), rej(D, "nan(1"),
        // the empty text is strtod's "nothing consumed of nothing": 0.0 (the
        // reader never asks, an empty field is always an empty string)
        dbl("", 0.0),
    };
    return rows;
}

} // namespace

TEST(NumberGrammar, TypedParseTable) {
    for (const GrammarRow& row : typed_grammar()) {
        const std::string where = std::string(Variant::type_name(row.type)) +
                                  " \"" + row.text + "\"";
        expect_row(Variant::parse(row.type, row.text), row, where);
    }
}

TEST(NumberGrammar, EmbeddedNulEndsTheNumber) {
    for (auto t : {I, U, D})
        EXPECT_TRUE(Variant::parse(t, std::string_view("1\0" "5", 3)).empty())
            << Variant::type_name(t);
}

TEST(NumberGrammar, ReaderColumnTable) {
    // What a .cali field of each declared type turns into: the typed parse
    // first, integer literals in double columns exactly, and on failure the
    // type-drift fallback (parse_guess, then the raw string).
    struct ColumnRow {
        const char* type;
        const char* text;
        GrammarRow want; // only .want/.i/.u/.d are used
        const char* as_string = nullptr; // set when the value stays a string
    };
    const std::vector<ColumnRow> rows = {
        // integer literals in a double column: exact when the double would
        // lose bits, a double otherwise
        {"double", "42", dbl("", 42.0)},
        {"double", "-42", dbl("", -42.0)},
        {"double", "9007199254740993", int_("", 9007199254740993ll)},
        {"double", "9223372036854775807", int_("", 9223372036854775807ll)},
        {"double", "18446744073709551615", uint_("", 18446744073709551615ull)},
        {"double", "9007199254740992", dbl("", 9007199254740992.0)},
        {"double", "-0", dbl("", -0.0)},  // not an integer: keeps its sign
        {"double", "-000", dbl("", -0.0)},
        {"double", "1e-400", dbl("", 0.0)},
        {"double", "+7", dbl("", 7.0)},
        {"double", "0x10", dbl("", 16.0)},
        {"double", "inf", dbl("", HUGE_VAL)},
        {"double", "nan", nan_("")},
        // overflow fails every numeric parse and stays text
        {"double", "1e400", rej(D, ""), "1e400"},
        {"double", "1.5x", rej(D, ""), "1.5x"},
        // int and uint columns drift to whatever parses
        {"int", "1.5", dbl("", 1.5)},
        {"int", "+5", dbl("", 5.0)},
        {"int", "-0", int_("", 0)},
        {"int", "9223372036854775808", uint_("", 9223372036854775808ull)},
        {"int", "-9223372036854775809", dbl("", -9223372036854775809.0)},
        {"uint", "-1", int_("", -1)},
        {"uint", "18446744073709551616", dbl("", 18446744073709551616.0)},
        {"uint", "1e3", dbl("", 1000.0)},
    };
    for (const ColumnRow& row : rows) {
        const std::string text =
            std::string("A,0,v,") + row.type + ",0\nR,0=" + row.text + "\n";
        std::vector<calib::IdRecord> out;
        calib::AttributeRegistry registry;
        calib::CaliReader::read_buffer(text, registry, [&](calib::IdRecord&& r) {
            out.push_back(std::move(r));
        });
        const std::string where = std::string(row.type) + " column \"" + row.text + "\"";
        ASSERT_EQ(out.size(), 1u) << where;
        ASSERT_EQ(out[0].size(), 1u) << where;
        const Variant v = out[0].begin()->value;
        if (row.as_string) {
            ASSERT_EQ(v.type(), Variant::Type::String) << where;
            EXPECT_EQ(v.as_string(), row.as_string) << where;
        } else {
            expect_row(v, row.want, where);
        }
    }
}

// ---- differential: Variant::parse(Double) against the strtod reference ----

namespace {

/// The strtod-based double parser as it stood before the from_chars fast
/// path, kept verbatim as the reference the fast path must agree with.
Variant reference_parse_double(std::string_view text) {
    std::string tmp(text);
    char* end = nullptr;
    errno     = 0;
    double v  = std::strtod(tmp.c_str(), &end);
    if (end != tmp.c_str() + tmp.size())
        return {};
    // ERANGE covers overflow and underflow alike. Underflow still
    // yields the correctly rounded subnormal (e.g. "5e-324") — accept
    // it; only overflow, which pins to ±HUGE_VAL, has no value.
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        return {};
    return Variant(v);
}

/// Returns the reference's verdict so callers can check their inputs
/// reach both outcomes.
Variant expect_same_as_reference(const std::string& s) {
    const Variant got  = Variant::parse(Variant::Type::Double, s);
    const Variant want = reference_parse_double(s);
    EXPECT_EQ(got.type(), want.type()) << '"' << s << '"';
    EXPECT_EQ(got.empty(), want.empty()) << '"' << s << '"';
    if (!want.empty() && got.type() == want.type()) {
        EXPECT_EQ(bits_of(got.as_double()), bits_of(want.as_double()))
            << '"' << s << "\" gave " << got.to_repr() << ", want "
            << want.to_repr();
    }
    return want;
}

/// Numeric-looking text: signs, digits around a '.', exponents up to the
/// extremes, 17-25 significant digits, hex floats, inf/nan spellings, and
/// now and then surrounding whitespace or trailing garbage.
std::string random_numeric(std::mt19937_64& rng) {
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    auto digits = [&](std::size_t n, const char* alphabet, std::size_t k) {
        std::string s;
        for (std::size_t i = 0; i < n; ++i)
            s += alphabet[pick(k)];
        return s;
    };
    std::string s;
    if (pick(40) == 0)
        s += " \t\n"[pick(3)];
    switch (pick(8)) {
    case 0: s += '-'; break;
    case 1: if (pick(4) == 0) s += '+'; break;
    default: break;
    }
    switch (pick(10)) {
    case 0: { // hex float
        s += pick(2) ? "0x" : "0X";
        s += digits(1 + pick(16), "0123456789abcdefABCDEF", 22);
        if (pick(2))
            s += "." + digits(pick(14), "0123456789abcdef", 16);
        if (pick(4) != 0)
            s += std::string(pick(2) ? "p" : "P") + (pick(2) ? "-" : "") +
                 std::to_string(pick(1200));
        break;
    }
    case 1: { // inf / nan spellings
        static const char* const words[] = {"inf", "INF", "Inf", "infinity",
                                            "Infinity", "INFINITY", "infin",
                                            "nan", "NaN", "NAN", "nan()",
                                            "nan(123)", "nan(abc_9)", "nan("};
        s += words[pick(std::size(words))];
        break;
    }
    case 2: { // the shortest repr, %.17g or a long expansion of a random double
        double d;
        std::uint64_t b = rng();
        std::memcpy(&d, &b, sizeof d);
        char buf[64];
        switch (pick(3)) {
        case 0: s = Variant(d).to_repr(); break;
        case 1: std::snprintf(buf, sizeof buf, "%.17g", d); s = buf; break;
        default: std::snprintf(buf, sizeof buf, "%.24e", d); s = buf; break;
        }
        break;
    }
    default: { // decimal: up to 25 significant digits, optional exponent
        const std::size_t nd = pick(4) == 0 ? pick(8) : 17 + pick(9);
        std::string m = digits(nd, "0123456789", 10);
        if (pick(6) == 0)
            m = std::string(pick(4), '0') + m; // leading zeros
        const std::size_t dot = pick(m.size() + 2);
        if (dot <= m.size())
            m.insert(dot, ".");
        s += m;
        if (pick(3) != 0) {
            s += pick(2) ? 'e' : 'E';
            switch (pick(4)) {
            case 0: s += '-'; break;
            case 1: s += '+'; break;
            default: break;
            }
            static const int extremes[] = {0,   1,   22,  23,  307, 308, 309,
                                           320, 323, 324, 325, 340, 400, 99999};
            s += std::to_string(pick(3) ? extremes[pick(std::size(extremes))]
                                        : static_cast<int>(pick(400)));
        }
        break;
    }
    }
    if (pick(40) == 0) {
        static const char* const tails[] = {" ", "x", "e", ".", "e+", ",", "\t", "0x"};
        s += tails[pick(std::size(tails))];
    }
    return s;
}

} // namespace

TEST(NumberGrammar, DoubleParseMatchesStrtodReferenceOnTable) {
    for (const GrammarRow& row : typed_grammar())
        if (row.type == D)
            expect_same_as_reference(row.text);
}

TEST(NumberGrammar, DoubleParseMatchesStrtodReferenceOnRandomText) {
    std::mt19937_64 rng(20171107);
    constexpr int kStrings = 150000;
    int accepted = 0, finite = 0;
    for (int i = 0; i < kStrings && !HasFailure(); ++i) {
        const Variant want = expect_same_as_reference(random_numeric(rng));
        accepted += !want.empty();
        finite += !want.empty() && std::isfinite(want.as_double());
    }
    // the generator reaches every outcome: rejected text, finite values
    // (the fast path) and inf/nan (the fallback)
    EXPECT_GT(accepted, kStrings / 2);
    EXPECT_LT(accepted, kStrings - kStrings / 20);
    EXPECT_GT(accepted - finite, kStrings / 100);
}
