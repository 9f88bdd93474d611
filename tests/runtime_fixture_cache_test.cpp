// FixtureCache: compute-once semantics under concurrency, hit/miss
// accounting, content-addressed keys, type safety, and failure retry.
// The in-memory cache instance is process-global, so every test uses its
// own key namespace and compares stats deltas; the persistent-store
// tests below use LOCAL FixtureCache instances over throwaway
// directories, so a fresh instance models a fresh process.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace {

using cps::runtime::FixtureCache;
using cps::runtime::FixtureCodec;
using cps::runtime::FixtureHandle;
using cps::runtime::FixtureKey;
using cps::runtime::FixtureStore;

TEST(FixtureKeyTest, StableAndContentSensitive) {
  const auto key = [] {
    FixtureKey k("domain");
    k.add(1.5).add(std::uint64_t{7}).add("text");
    return k.str();
  };
  EXPECT_EQ(key(), key());  // deterministic
  EXPECT_EQ(key().rfind("domain/", 0), 0u) << key();

  FixtureKey other("domain");
  other.add(1.5).add(std::uint64_t{7}).add("texu");
  EXPECT_NE(key(), other.str());

  // A changed double changes the key even at the last bit.
  FixtureKey a("d"), b("d");
  a.add(1.0);
  b.add(std::nextafter(1.0, 2.0));
  EXPECT_NE(a.str(), b.str());

  // Length-prefixed strings: "ab"+"c" must not alias "a"+"bc".
  FixtureKey ab_c("d"), a_bc("d");
  ab_c.add("ab").add("c");
  a_bc.add("a").add("bc");
  EXPECT_NE(ab_c.str(), a_bc.str());
}

TEST(FixtureKeyTest, MatrixAndVectorIncludeShape) {
  cps::linalg::Matrix m12(1, 2, 3.0);
  cps::linalg::Matrix m21(2, 1, 3.0);
  FixtureKey a("d"), b("d");
  a.add(m12);
  b.add(m21);
  EXPECT_NE(a.str(), b.str());

  cps::linalg::Vector v2(2, 3.0);
  FixtureKey c("d");
  c.add(v2);
  EXPECT_NE(a.str(), c.str());
}

TEST(FixtureCacheTest, HitReturnsTheSameObject) {
  auto& cache = FixtureCache::instance();
  const auto before = cache.stats();
  int computes = 0;
  auto first = FixtureHandle<std::string>("test/hit-object").get([&] {
    ++computes;
    return std::string("payload");
  }, cache);
  auto second = FixtureHandle<std::string>("test/hit-object").get([&] {
    ++computes;
    return std::string("payload");
  }, cache);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());  // shared, not equal-but-copied
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(FixtureCacheTest, ComputesOnceUnderConcurrency) {
  auto& cache = FixtureCache::instance();
  std::atomic<int> computes{0};
  constexpr int kThreads = 16;
  std::vector<std::shared_ptr<const int>> results(kThreads);
  {
    // Hammer one key from the same pool the experiments use.
    cps::runtime::ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    futures.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      futures.push_back(pool.submit([&cache, &computes, &results, t] {
        results[t] = FixtureHandle<int>("test/concurrent").get([&computes] {
          ++computes;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));  // widen the race
          return 1234;
        }, cache);
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(computes.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
    EXPECT_EQ(*results[t], 1234);
  }
}

TEST(FixtureCacheTest, TypeMismatchThrows) {
  auto& cache = FixtureCache::instance();
  FixtureHandle<int>("test/typed").get([] { return 1; }, cache);
  EXPECT_THROW(FixtureHandle<double>("test/typed").get([] { return 2.0; }, cache), cps::Error);
}

TEST(FixtureCacheTest, FailedComputeReleasesTheKey) {
  auto& cache = FixtureCache::instance();
  EXPECT_THROW(FixtureHandle<int>("test/failing")
                   .get([]() -> int { throw std::runtime_error("fixture exploded"); }, cache),
               std::runtime_error);
  // The key must be retryable after a failure.
  auto value = FixtureHandle<int>("test/failing").get([] { return 7; }, cache);
  EXPECT_EQ(*value, 7);
}

TEST(FixtureCacheTest, DistinctKeysDistinctValues) {
  auto& cache = FixtureCache::instance();
  FixtureKey a("test/param"), b("test/param");
  a.add(1.0);
  b.add(2.0);
  auto va = FixtureHandle<double>(a).get([] { return 1.0; }, cache);
  auto vb = FixtureHandle<double>(b).get([] { return 2.0; }, cache);
  EXPECT_NE(va.get(), vb.get());
  EXPECT_EQ(*va, 1.0);
  EXPECT_EQ(*vb, 2.0);
}

// ---------------------------------------------------------------------------
// Persistent store (the second cache level)

/// Throwaway store directory, removed on scope exit.
struct TempStoreDir {
  TempStoreDir()
      : path((std::filesystem::temp_directory_path() /
              ("cps-fixture-store-test-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter++)))
                 .string()) {}
  ~TempStoreDir() {
    std::error_code error;
    std::filesystem::remove_all(path, error);
  }
  static std::atomic<int> counter;
  std::string path;
};
std::atomic<int> TempStoreDir::counter{0};

/// Codec used by the store tests: a double persisted via its exact bit
/// pattern (what every real codec does field by field).
FixtureCodec<double> double_codec() {
  return FixtureCodec<double>{
      "test_double/v1",
      [](const double& value, cps::util::BinaryWriter& out) { out.write_double(value); },
      [](cps::util::BinaryReader& in) { return in.read_double(); }};
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(FixtureStoreTest, ColdMissComputesAndWritesTheFile) {
  TempStoreDir dir;
  FixtureCache cache;
  cache.set_store(std::make_shared<FixtureStore>(dir.path));

  FixtureKey key("store_cold");
  key.add(1.25);
  int computes = 0;
  auto value = FixtureHandle<double>(key).with_codec(double_codec()).get([&] {
    ++computes;
    return 0.1 + 0.2;  // not exactly 0.3: the bits must survive as-is
  }, cache);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*value, 0.1 + 0.2);

  const auto stats = cache.store()->stats();
  EXPECT_EQ(stats.disk_misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_TRUE(std::filesystem::exists(cache.store()->path_of(key.str())))
      << cache.store()->path_of(key.str());
}

TEST(FixtureStoreTest, WarmHitSkipsComputeAndIsBitIdentical) {
  TempStoreDir dir;
  FixtureKey key("store_warm");
  key.add(2.5).add(std::uint64_t{17});
  const double expected = 0.1 + 0.2;

  {
    FixtureCache first_process;
    first_process.set_store(std::make_shared<FixtureStore>(dir.path));
    FixtureHandle<double>(key).with_codec(double_codec()).get([&] { return expected; },
                                                              first_process);
  }

  // A fresh cache instance models the next process of the campaign: its
  // memory level is empty, so the value must come from disk — without
  // running compute, and with the exact bit pattern.
  FixtureCache second_process;
  second_process.set_store(std::make_shared<FixtureStore>(dir.path));
  auto value = FixtureHandle<double>(key).with_codec(double_codec()).get([&]() -> double {
    ADD_FAILURE() << "warm store hit must not recompute";
    return 0.0;
  }, second_process);
  EXPECT_EQ(bits_of(*value), bits_of(expected));
  const auto stats = second_process.store()->stats();
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.disk_misses, 0u);
  EXPECT_EQ(stats.writes, 0u);
}

TEST(FixtureStoreTest, CorruptedFileRecomputesLoudlyAndHeals) {
  TempStoreDir dir;
  FixtureKey key("store_corrupt");
  key.add(3.0);
  {
    FixtureCache writer;
    writer.set_store(std::make_shared<FixtureStore>(dir.path));
    FixtureHandle<double>(key).with_codec(double_codec()).get([] { return 42.0; }, writer);
  }

  // Flip a payload byte mid-file: the checksum must reject it.
  const std::string path = FixtureStore(dir.path).path_of(key.str());
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(32);
    file.put('\x5A');
  }

  FixtureCache reader;
  reader.set_store(std::make_shared<FixtureStore>(dir.path));
  int computes = 0;
  auto value = FixtureHandle<double>(key).with_codec(double_codec()).get([&] {
    ++computes;
    return 42.0;
  }, reader);
  EXPECT_EQ(computes, 1) << "corrupt file must fall back to compute";
  EXPECT_EQ(*value, 42.0);
  auto stats = reader.store()->stats();
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.writes, 1u) << "recompute must overwrite the corrupt file";

  // The rewritten file serves the next process again.
  FixtureCache healed;
  healed.set_store(std::make_shared<FixtureStore>(dir.path));
  auto again = FixtureHandle<double>(key).with_codec(double_codec()).get([&]() -> double {
    ADD_FAILURE() << "healed store must hit";
    return 0.0;
  }, healed);
  EXPECT_EQ(*again, 42.0);
}

TEST(FixtureStoreTest, TruncatedFileRecomputes) {
  TempStoreDir dir;
  FixtureKey key("store_truncated");
  key.add(4.0);
  {
    FixtureCache writer;
    writer.set_store(std::make_shared<FixtureStore>(dir.path));
    FixtureHandle<double>(key).with_codec(double_codec()).get([] { return 7.0; }, writer);
  }
  const std::string path = FixtureStore(dir.path).path_of(key.str());
  std::filesystem::resize_file(path, 10);  // shorter than the magic + trailer

  FixtureCache reader;
  reader.set_store(std::make_shared<FixtureStore>(dir.path));
  int computes = 0;
  auto value = FixtureHandle<double>(key).with_codec(double_codec()).get([&] {
    ++computes;
    return 7.0;
  }, reader);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*value, 7.0);
  EXPECT_EQ(reader.store()->stats().invalid, 1u);
}

TEST(FixtureStoreTest, KeyMaterialMismatchThrowsLoudly) {
  // The collision contract: same digest (same file) but different key
  // material must FAIL, never alias.  Exercised directly on the store —
  // a real 64-bit digest collision cannot be staged through FixtureKey.
  TempStoreDir dir;
  FixtureStore store(dir.path);
  store.save("domain/abc123", "fmt/v1", "material-A", "payload");
  EXPECT_THROW(store.load("domain/abc123", "fmt/v1", "material-B"), cps::Error);
  // Matching material still loads fine.
  auto payload = store.load("domain/abc123", "fmt/v1", "material-A");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload");
}

TEST(FixtureStoreTest, FormatSkewRecomputesInsteadOfAliasing) {
  // A codec version bump must invalidate old files (recompute), not
  // misread them and not trip the collision error.
  TempStoreDir dir;
  FixtureStore store(dir.path);
  store.save("domain/def456", "fmt/v1", "material", "old-payload");
  auto payload = store.load("domain/def456", "fmt/v2", "material");
  EXPECT_FALSE(payload.has_value());
  EXPECT_EQ(store.stats().invalid, 1u);
}

TEST(FixtureStoreTest, UndecodablePayloadRecomputes) {
  // The file container is intact (checksum passes) but the payload does
  // not decode as the codec's type: the cache layer must warn and
  // recompute rather than propagate the decode error.
  TempStoreDir dir;
  FixtureKey key("store_badpayload");
  key.add(5.0);
  {
    FixtureStore store(dir.path);
    // Valid container, 3-byte payload — not a valid double encoding.
    store.save(key.str(), "test_double/v1", key.material(), "abc");
  }
  FixtureCache cache;
  cache.set_store(std::make_shared<FixtureStore>(dir.path));
  int computes = 0;
  auto value = FixtureHandle<double>(key).with_codec(double_codec()).get([&] {
    ++computes;
    return 11.0;
  }, cache);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*value, 11.0);
  // The load was reclassified: a payload the codec rejected was never a
  // served hit (record_undecodable), and the recompute overwrote it.
  const auto stats = cache.store()->stats();
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_misses, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.writes, 1u);
}

TEST(FixtureStoreTest, UsageReportsPerDomainFilesAndBytes) {
  TempStoreDir dir;
  FixtureCache cache;
  cache.set_store(std::make_shared<FixtureStore>(dir.path));
  for (int i = 0; i < 3; ++i) {
    FixtureKey key("usage_domain_a");
    key.add(static_cast<double>(i));
    FixtureHandle<double>(key).with_codec(double_codec()).get([&] { return i * 1.5; }, cache);
  }
  FixtureKey key_b("usage_domain_b");
  key_b.add(9.0);
  FixtureHandle<double>(key_b).with_codec(double_codec()).get([&] { return 9.0; }, cache);

  const auto usage = cache.store()->usage();
  ASSERT_EQ(usage.size(), 2u);  // sorted by domain name
  EXPECT_EQ(usage[0].domain, "usage_domain_a");
  EXPECT_EQ(usage[0].files, 3u);
  EXPECT_GT(usage[0].bytes, 0u);
  EXPECT_GE(usage[0].oldest_age_seconds, usage[0].newest_age_seconds);
  EXPECT_EQ(usage[1].domain, "usage_domain_b");
  EXPECT_EQ(usage[1].files, 1u);
}

TEST(FixtureStoreTest, GcEvictsLeastRecentlyUsedFirstUntilUnderCap) {
  TempStoreDir dir;
  std::vector<std::string> paths;
  std::uintmax_t file_bytes = 0;
  {
    FixtureCache writer;
    writer.set_store(std::make_shared<FixtureStore>(dir.path));
    for (int i = 0; i < 4; ++i) {
      FixtureKey key("gc_domain");
      key.add(static_cast<double>(i));
      FixtureHandle<double>(key).with_codec(double_codec()).get([&] { return i * 2.0; },
                                                                writer);
      paths.push_back(writer.store()->path_of(key.str()));
    }
    file_bytes = std::filesystem::file_size(paths[0]);
  }
  // Age the files: paths[0] oldest ... paths[3] newest.
  const auto now = std::filesystem::file_time_type::clock::now();
  for (int i = 0; i < 4; ++i)
    std::filesystem::last_write_time(paths[static_cast<std::size_t>(i)],
                                     now - std::chrono::hours(10 - i));

  // A FRESH store instance models a later maintenance process: nothing is
  // "touched", so pure LRU applies.  Cap at two files' worth.
  const FixtureStore maintenance(dir.path);
  const auto gc = maintenance.gc_to_max_bytes(2 * file_bytes);
  EXPECT_EQ(gc.scanned, 4u);
  EXPECT_EQ(gc.evicted, 2u);
  EXPECT_EQ(gc.kept_in_use, 0u);
  EXPECT_EQ(gc.bytes_before, 4 * file_bytes);
  EXPECT_EQ(gc.bytes_after, 2 * file_bytes);
  EXPECT_FALSE(std::filesystem::exists(paths[0]));  // oldest two gone
  EXPECT_FALSE(std::filesystem::exists(paths[1]));
  EXPECT_TRUE(std::filesystem::exists(paths[2]));
  EXPECT_TRUE(std::filesystem::exists(paths[3]));

  // Already under the cap: a second pass is a no-op.
  const auto idle = maintenance.gc_to_max_bytes(2 * file_bytes);
  EXPECT_EQ(idle.evicted, 0u);
  EXPECT_EQ(idle.bytes_after, idle.bytes_before);
}

TEST(FixtureStoreTest, GcNeverEvictsFilesTouchedByTheCurrentRun) {
  TempStoreDir dir;
  FixtureCache cache;
  cache.set_store(std::make_shared<FixtureStore>(dir.path));
  FixtureKey key("gc_inuse");
  key.add(1.0);
  FixtureHandle<double>(key).with_codec(double_codec()).get([&] { return 1.0; }, cache);
  const std::string path = cache.store()->path_of(key.str());

  // Cap 0 would evict everything — but this process wrote the file, so
  // it is part of the current run's working set and must survive.
  const auto gc = cache.store()->gc_to_max_bytes(0);
  EXPECT_EQ(gc.scanned, 1u);
  EXPECT_EQ(gc.evicted, 0u);
  EXPECT_EQ(gc.kept_in_use, 1u);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Loading (not just writing) also counts as touching: a fresh cache
  // over a fresh store instance loads the file, then gc spares it.
  FixtureCache reader;
  reader.set_store(std::make_shared<FixtureStore>(dir.path));
  FixtureHandle<double>(key).with_codec(double_codec()).get([&]() -> double {
    ADD_FAILURE() << "warm hit expected";
    return 0.0;
  }, reader);
  const auto gc2 = reader.store()->gc_to_max_bytes(0);
  EXPECT_EQ(gc2.evicted, 0u);
  EXPECT_EQ(gc2.kept_in_use, 1u);
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(FixtureCacheTest, ClearEmptiesEntries) {
  // Separate cache instance semantics are global; clear() then repopulate.
  auto& cache = FixtureCache::instance();
  FixtureHandle<int>("test/clear-me").get([] { return 1; }, cache);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  int computes = 0;
  FixtureHandle<int>("test/clear-me").get([&] {
    ++computes;
    return 1;
  }, cache);
  EXPECT_EQ(computes, 1);
}

}  // namespace
