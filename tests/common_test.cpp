// Unit and property tests for the common substrate: U128, RNG, byte
// buffers, results, stats, laned logs.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/flat_table.hpp"
#include "common/pool.hpp"
#include "common/result.hpp"
#include "common/small_fn.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/u128.hpp"

namespace objrpc {
namespace {

// --- U128 -------------------------------------------------------------------

TEST(U128, DefaultIsZero) {
  U128 v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.hi, 0u);
  EXPECT_EQ(v.lo, 0u);
}

TEST(U128, OrderingComparesHiThenLo) {
  EXPECT_LT((U128{0, 5}), (U128{1, 0}));
  EXPECT_LT((U128{1, 4}), (U128{1, 5}));
  EXPECT_EQ((U128{2, 3}), (U128{2, 3}));
}

TEST(U128, HexRoundTrip) {
  const U128 v{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(v.to_hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(U128::from_hex(v.to_hex()), v);
}

TEST(U128, FromHexShortStrings) {
  EXPECT_EQ(U128::from_hex("ff"), U128::from_u64(255));
  EXPECT_EQ(U128::from_hex("10000000000000000"), (U128{1, 0}));
}

TEST(U128, FromHexRejectsGarbage) {
  EXPECT_TRUE(U128::from_hex("xyz").is_zero());
  EXPECT_TRUE(U128::from_hex("").is_zero());
  EXPECT_TRUE(
      U128::from_hex("123456789012345678901234567890123").is_zero());
}

TEST(U128, HashSpreads) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<U128>{}(U128{0, i}));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ZipfStaysInRange) {
  Rng r(19);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_zipf(100, 1.1), 100u);
  }
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(21);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (r.next_zipf(1000, 1.2) < 10);
  // With s=1.2 the first ten ranks should absorb a large share.
  EXPECT_GT(low, n / 4);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng r(23);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += (r.next_zipf(1000, 0.0) < 100);
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.02);
}

TEST(Rng, ForkIsIndependentAndStable) {
  Rng base(31);
  Rng f1 = base.fork(1);
  Rng f2 = base.fork(2);
  Rng f1_again = base.fork(1);
  EXPECT_EQ(f1.next_u64(), f1_again.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, U128NeverAllZeroInPractice) {
  Rng r(37);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(r.next_u128().is_zero());
  }
}

// --- Bytes ------------------------------------------------------------------

TEST(Bytes, PrimitiveRoundTrip) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_u128(U128{7, 9});

  BufReader r(w.view());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_EQ(r.get_u128(), (U128{7, 9}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {0,    1,    127,        128,
                                 255,  300,  (1u << 14) - 1, 1u << 14,
                                 1ULL << 32, ~0ULL};
  for (auto v : cases) {
    BufWriter w;
    w.put_varint(v);
    BufReader r(w.view());
    EXPECT_EQ(r.get_varint(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Bytes, VarintSizes) {
  BufWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  BufWriter w2;
  w2.put_varint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Bytes, BlobAndStringRoundTrip) {
  BufWriter w;
  const Bytes blob{1, 2, 3, 4, 5};
  w.put_blob(blob);
  w.put_string("hello world");
  BufReader r(w.view());
  EXPECT_EQ(r.get_blob(), blob);
  EXPECT_EQ(r.get_string(), "hello world");
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, UnderflowSetsNotOkAndReturnsZero) {
  BufWriter w;
  w.put_u16(0xFFFF);
  BufReader r(w.view());
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay zero.
  EXPECT_EQ(r.get_u8(), 0u);
}

TEST(Bytes, MalformedVarintFails) {
  Bytes evil(11, 0xFF);  // continuation bit forever
  BufReader r(evil);
  r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, GetSpanBorrowsWithoutCopy) {
  BufWriter w;
  w.put_u32(0x01020304);
  BufReader r(w.view());
  ByteSpan s = r.get_span(4);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.data(), w.view().data());
}

// Property: any sequence of writes reads back identically.
class BytesPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytesPropertyTest, RandomSequenceRoundTrips) {
  Rng rng(GetParam());
  BufWriter w;
  std::vector<std::pair<int, std::uint64_t>> script;
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng.next_below(4));
    const std::uint64_t v = rng.next_u64();
    script.emplace_back(kind, v);
    switch (kind) {
      case 0:
        w.put_u8(static_cast<std::uint8_t>(v));
        break;
      case 1:
        w.put_u32(static_cast<std::uint32_t>(v));
        break;
      case 2:
        w.put_u64(v);
        break;
      case 3:
        w.put_varint(v);
        break;
    }
  }
  BufReader r(w.view());
  for (auto [kind, v] : script) {
    switch (kind) {
      case 0:
        EXPECT_EQ(r.get_u8(), static_cast<std::uint8_t>(v));
        break;
      case 1:
        EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(v));
        break;
      case 2:
        EXPECT_EQ(r.get_u64(), v);
        break;
      case 3:
        EXPECT_EQ(r.get_varint(), v);
        break;
    }
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Result -----------------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Error{Errc::not_found, "nope"};
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::not_found);
  EXPECT_EQ(r.error().to_string(), "not_found: nope");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ErrcConstructor) {
  Result<int> r{Errc::timeout};
  EXPECT_FALSE(r);
  EXPECT_EQ(r.error().code, Errc::timeout);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  Status e{Errc::conflict, "clash"};
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.error().code, Errc::conflict);
}

TEST(Result, AllErrcNamesDistinct) {
  std::set<std::string> names;
  for (int i = 0; i <= 10; ++i) {
    names.insert(errc_name(static_cast<Errc>(i)));
  }
  EXPECT_EQ(names.size(), 11u);
}

// --- Stats ------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(55);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 100;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(SampleSet, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, EmptyIsZero) {
  SampleSet s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(SampleSet, AddAfterPercentileResorts) {
  SampleSet s;
  s.add(10);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  s.add(0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

// --- Time -------------------------------------------------------------------

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_micros(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(2 * kMillisecond), 2.0);
  EXPECT_EQ(from_micros(2.5), 2500);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(500), "500ns");
  EXPECT_EQ(format_duration(1500), "1.500us");
  EXPECT_EQ(format_duration(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(format_duration(3 * kSecond), "3.000s");
}

// --- SmallFn ----------------------------------------------------------------

TEST(SmallFn, SmallCapturesStayInline) {
  int hits = 0;
  SmallFn fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_TRUE(fn.is_inline());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, LargeCapturesFallBackToHeap) {
  std::array<std::uint64_t, 64> big{};  // 512 bytes > inline buffer
  big[0] = 7;
  big[63] = 9;
  std::uint64_t sum = 0;
  SmallFn fn = [big, &sum] { sum = big[0] + big[63]; };
  ASSERT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(sum, 16u);
}

TEST(SmallFn, MoveTransfersOwnershipOfMoveOnlyCapture) {
  auto owned = std::make_unique<int>(41);
  SmallFn a = [p = std::move(owned)] { ++*p; };
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();

  SmallFn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  ASSERT_TRUE(static_cast<bool>(c));
  c();
}

TEST(SmallFn, ResetDestroysTheCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  SmallFn fn = [t = std::move(token)] { (void)t; };
  EXPECT_FALSE(watch.expired());
  fn.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, MoveAssignReleasesPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  SmallFn fn = [t = std::move(first)] { (void)t; };
  fn = SmallFn([] {});
  EXPECT_TRUE(watch.expired());
}

// --- FlatHashMap / FlatHashSet ----------------------------------------------

TEST(FlatHashMap, InsertFindEraseRoundTrip) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 100; ++k) {
    auto [slot, inserted] = m.try_emplace(k, static_cast<int>(k * 3));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*slot, static_cast<int>(k * 3));
  }
  EXPECT_EQ(m.size(), 100u);
  auto [slot, inserted] = m.try_emplace(7, -1);
  EXPECT_FALSE(inserted);  // existing value untouched
  EXPECT_EQ(*slot, 21);
  for (std::uint64_t k = 0; k < 100; ++k) {
    int* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, static_cast<int>(k * 3));
  }
  EXPECT_EQ(m.find(100), nullptr);
  for (std::uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_FALSE(m.erase(2));
  EXPECT_EQ(m.size(), 50u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(m.contains(k), k % 2 == 1) << k;
  }
}

TEST(FlatHashMap, EraseKeepsCollidingRunsReachable) {
  // Regression for the backward-shift bug: with linear probing, erasing
  // from a run of colliding keys must not strand later entries behind
  // an element that sits at its home slot.  Dense sequential keys over
  // many erase/reinsert rounds exercise exactly those runs.
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::set<std::uint64_t> live;
  std::uint64_t next_key = 0;
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    if (live.empty() || rng.next_below(3) != 0) {
      m[next_key] = next_key ^ 0xF00D;
      live.insert(next_key);
      ++next_key;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      EXPECT_TRUE(m.erase(*it));
      live.erase(it);
    }
    EXPECT_EQ(m.size(), live.size());
  }
  for (std::uint64_t k : live) {
    std::uint64_t* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k ^ 0xF00D);
  }
  std::size_t visited = 0;
  m.for_each([&](const std::uint64_t& k, std::uint64_t& v) {
    EXPECT_EQ(v, k ^ 0xF00D);
    EXPECT_TRUE(live.count(k));
    ++visited;
  });
  EXPECT_EQ(visited, live.size());
}

TEST(FlatHashMap, ReserveAvoidsRehashAndKeysCollects) {
  FlatHashMap<int, int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  for (int k = 0; k < 1000; ++k) m[k] = k;
  EXPECT_EQ(m.capacity(), cap);  // no growth under the 7/8 ceiling
  auto keys = m.keys();
  EXPECT_EQ(keys.size(), 1000u);
  std::set<int> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), 1000u);
}

TEST(FlatHashMap, HoldsMoveOnlyValues) {
  FlatHashMap<int, std::unique_ptr<int>> m;
  m.try_emplace(1, std::make_unique<int>(11));
  m.insert_or_assign(1, std::make_unique<int>(12));
  for (int k = 2; k < 64; ++k) m.try_emplace(k, std::make_unique<int>(k));
  auto* v = m.find(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(**v, 12);
  EXPECT_TRUE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
}

TEST(FlatHashSet, InsertContainsErase) {
  FlatHashSet<std::uint32_t> s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.insert(6));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.count(5), 1u);
  EXPECT_EQ(s.count(7), 0u);
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, RecyclesReleasedBuffers) {
  BufferPool pool;
  Bytes b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_EQ(pool.stats().released, 1u);

  Bytes again = pool.acquire(50);  // served by the free list, resized
  EXPECT_EQ(again.size(), 50u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, CopyOfDuplicatesContents) {
  BufferPool pool;
  Bytes src;
  for (int i = 0; i < 32; ++i) src.push_back(static_cast<std::uint8_t>(i));
  Bytes copy = pool.copy_of(src);
  EXPECT_EQ(copy, src);
  // Recycled buffers are fully overwritten: dirty contents never leak.
  pool.release(std::move(copy));
  Bytes reused = pool.copy_of(src);
  EXPECT_EQ(reused, src);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(BufferPool, RetentionCapDropsBurstBuffers) {
  BufferPool pool(2);
  pool.release(Bytes(10));
  pool.release(Bytes(10));
  pool.release(Bytes(10));  // over the cap: freed, not retained
  EXPECT_EQ(pool.idle(), 2u);
  EXPECT_EQ(pool.stats().released, 2u);
  EXPECT_EQ(pool.stats().dropped, 1u);
  pool.release(Bytes());  // capacity 0: nothing worth retaining
  EXPECT_EQ(pool.idle(), 2u);
}

}  // namespace
}  // namespace objrpc
