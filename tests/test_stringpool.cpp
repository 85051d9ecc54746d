#include "common/stringpool.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

using calib::StringPool;

TEST(StringPool, InternReturnsStablePointer) {
    StringPool pool;
    const char* a = pool.intern("hello");
    const char* b = pool.intern("hello");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "hello");
}

TEST(StringPool, DistinctStringsDistinctPointers) {
    StringPool pool;
    EXPECT_NE(pool.intern("a"), pool.intern("b"));
    EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, EmptyString) {
    StringPool pool;
    const char* e = pool.intern("");
    EXPECT_STREQ(e, "");
    EXPECT_EQ(StringPool::length(e), 0u);
    EXPECT_EQ(pool.intern(""), e);
}

TEST(StringPool, LengthAndHashHeaders) {
    StringPool pool;
    const char* s = pool.intern("abcdef");
    EXPECT_EQ(StringPool::length(s), 6u);
    EXPECT_EQ(StringPool::hash(s), calib::fnv1a("abcdef"));
}

TEST(StringPool, EmbeddedNulAndBinary) {
    StringPool pool;
    const std::string with_nul("ab\0cd", 5);
    const char* s = pool.intern(with_nul);
    EXPECT_EQ(StringPool::length(s), 5u);
    EXPECT_EQ(std::string_view(s, 5), with_nul);
    // a different string with the same prefix must not collide
    const char* t = pool.intern("ab");
    EXPECT_NE(s, t);
}

TEST(StringPool, LargeStringBeyondBlockSize) {
    StringPool pool;
    const std::string big(100000, 'x');
    const char* s = pool.intern(big);
    EXPECT_EQ(StringPool::length(s), big.size());
    EXPECT_EQ(pool.intern(big), s);
}

TEST(StringPool, ManyStringsAcrossBlocks) {
    StringPool pool;
    std::vector<const char*> ptrs;
    for (int i = 0; i < 10000; ++i)
        ptrs.push_back(pool.intern("string-" + std::to_string(i)));
    EXPECT_EQ(pool.size(), 10000u);
    // all pointers stay valid and distinct
    std::set<const void*> unique(ptrs.begin(), ptrs.end());
    EXPECT_EQ(unique.size(), 10000u);
    for (int i = 0; i < 10000; ++i)
        EXPECT_EQ(pool.intern("string-" + std::to_string(i)), ptrs[i]);
}

TEST(StringPool, PayloadBytesAccumulates) {
    StringPool pool;
    pool.intern("abc");
    pool.intern("defgh");
    pool.intern("abc"); // duplicate: no growth
    EXPECT_EQ(pool.payload_bytes(), 8u);
}

TEST(StringPool, ConcurrentInterningIsConsistent) {
    StringPool pool;
    constexpr int n_threads = 8;
    constexpr int n_strings = 500;
    std::vector<std::vector<const char*>> results(n_threads);

    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t)
        threads.emplace_back([&pool, &results, t] {
            for (int i = 0; i < n_strings; ++i)
                results[t].push_back(pool.intern("shared-" + std::to_string(i)));
        });
    for (auto& t : threads)
        t.join();

    // every thread observed the same pointer for the same string
    for (int i = 0; i < n_strings; ++i)
        for (int t = 1; t < n_threads; ++t)
            EXPECT_EQ(results[t][i], results[0][i]);
    EXPECT_EQ(pool.size(), static_cast<std::size_t>(n_strings));
}

TEST(StringPool, UncontendedInterningCountsNoContention) {
    // the counter is registered up front, and a lone thread never finds
    // the pool locked
    calib::obs::set_enabled(true);
    auto& reg = calib::obs::MetricsRegistry::instance();
    reg.reset();
    ASSERT_TRUE(reg.find("stringpool.lock_contended").has_value());
    StringPool pool;
    for (int i = 0; i < 1000; ++i)
        pool.intern("solo-" + std::to_string(i % 100));
    EXPECT_EQ(reg.value("stringpool.lock_contended"), 0);
    calib::obs::set_enabled(false);
}

TEST(StringPool, GlobalPoolIsSingleton) {
    EXPECT_EQ(&StringPool::global(), &StringPool::global());
    const char* a = calib::intern("global-test");
    EXPECT_EQ(calib::intern("global-test"), a);
}
