// Content-addressed fixture cache for the experiment-runner subsystem.
//
// A cps_run campaign executes many experiments that share expensive
// deterministic inputs — the servo dwell/wait curve (fig3, fig4, benches),
// the synthesized six-plant fleet and its hybrid loop designs (table1,
// fig5, ablation_envelope), the per-application envelope curves.  Before
// this cache each experiment re-derived them from scratch; now the first
// requester computes a fixture once and every later requester (on any
// ThreadPool worker) shares the immutable result.
//
// Keys are content-addressed: FixtureKey hashes every input that
// determines the fixture (matrices entry by entry, scalars bit by bit),
// so two requests share a slot exactly when their inputs are identical.
// The full key material is stored alongside the digest and re-verified on
// every hit, so a 64-bit hash collision surfaces as a loud error instead
// of silently aliasing a stale fixture.  Values are
// immutable (shared_ptr<const T>), which is what makes sharing across
// SweepRunner tasks safe and keeps the determinism contract intact: a
// cache hit returns the very object a miss would have computed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <typeindex>
#include <unordered_map>
#include <utility>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "runtime/fixture_store.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace cps::runtime {

/// Builder of content-addressed cache keys: FNV-1a over the bit patterns
/// of every field added.  The rendered key is "<domain>/<16-hex-digits>",
/// so the domain keeps keys debuggable while the hash carries the content.
class FixtureKey {
 public:
  /// Start a key in `domain` (a short fixture-family name, e.g.
  /// "dwell_wait_curve").
  explicit FixtureKey(std::string domain);

  FixtureKey& add(double value);             ///< mix the IEEE-754 bit pattern
  FixtureKey& add(std::uint64_t value);      ///< mix an integer field
  FixtureKey& add(std::string_view text);    ///< mix length-prefixed bytes
  FixtureKey& add(const linalg::Matrix& m);  ///< dimensions + every entry
  FixtureKey& add(const linalg::Vector& v);  ///< size + every entry

  /// The rendered key; stable across processes and platforms with IEEE-754
  /// doubles.
  std::string str() const;

  /// Every byte mixed into the hash, in order — stored by the cache and
  /// compared on hits so a digest collision cannot alias fixtures.
  const std::string& material() const { return material_; }

 private:
  void mix_bytes(const void* data, std::size_t size);

  std::string domain_;
  std::string material_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

/// Binary codec for one fixture type: how the two-level cache persists a
/// T to the on-disk store and restores it bit-identically.
///
/// `format` is the versioned layout tag (e.g. "dwell_wait_curve/v1");
/// bump the version whenever encode/decode change, so stale files are
/// recomputed instead of misread.  decode(encode(x)) must reproduce x
/// EXACTLY — every double via its IEEE-754 bit pattern
/// (util/serialize.hpp) — because experiment outputs must not depend on
/// whether a fixture came from compute or from disk.
template <typename T>
struct FixtureCodec {
  std::string format;
  std::function<void(const T&, util::BinaryWriter&)> encode;
  std::function<T(util::BinaryReader&)> decode;
};

template <typename T>
class FixtureHandle;

/// Process-wide, thread-safe store of computed fixtures.
///
/// Concurrency contract: the first thread to request a key computes the
/// fixture *outside* the cache lock; every concurrent requester of the
/// same key blocks on a shared future and receives the same shared_ptr
/// (compute-once, share-everywhere).  A compute that throws propagates
/// the exception to every waiter and releases the key so a later request
/// can retry.
///
/// Two-level operation: attach a FixtureStore (set_store) and
/// codec-carrying requests consult the disk layer on a memory miss — a
/// valid store file is decoded instead of computed, and a fresh compute
/// is persisted for the next process.  Without a store (or for
/// codec-less requests) behaviour is exactly the PR-2 single-level
/// cache.
///
/// API: FixtureHandle<T> (below) is the only entry point — it binds the
/// key (content-addressed FixtureKey or recipe-name string) and the
/// optional codec once, and get() runs the lookup.
class FixtureCache {
 public:
  /// The singleton shared by every experiment in the process.
  static FixtureCache& instance();

  /// Hit/miss/entry counters (monotonic within a process, except entries
  /// which clear() resets).  A "miss" counts the requester that computes.
  struct Stats {
    std::size_t hits = 0;     ///< requests served from the cache
    std::size_t misses = 0;   ///< requests that computed the fixture
    std::size_t entries = 0;  ///< fixtures currently stored
  };

  /// Attach (or detach, with nullptr) the persistent second level.  Set
  /// once at process start — cps_run wires --fixture-store here before
  /// any experiment runs.
  void set_store(std::shared_ptr<FixtureStore> store);

  /// The attached store, or nullptr.
  std::shared_ptr<FixtureStore> store() const;

 private:
  /// Wrap `compute` with the disk layer: on a memory miss the owner
  /// thread first tries the store, and persists what it computes.
  template <typename T, typename Fn>
  auto stored_compute(const std::string& key, const std::string& material,
                      const FixtureCodec<T>& codec, Fn&& compute) {
    return [this, key, material, codec, compute = std::forward<Fn>(compute)]() -> T {
      const auto store = this->store();
      if (store) {
        if (auto payload = store->load(key, codec.format, material)) {
          try {
            util::BinaryReader reader(*payload);
            T value = codec.decode(reader);
            reader.expect_end();
            return value;
          } catch (const std::exception& error) {
            // Truncation (SerializeError) or a value-invariant violation
            // thrown by a constructor inside decode: either way the file
            // is unusable — same warn-and-recompute contract as a failed
            // checksum, never a failed campaign.
            store->record_undecodable();
            std::fprintf(stderr,
                         "[fixture-store] WARNING: %s: payload undecodable (%s) — "
                         "recomputing\n",
                         key.c_str(), error.what());
          }
        }
      }
      T value = compute();
      if (store) {
        util::BinaryWriter writer;
        codec.encode(value, writer);
        store->save(key, codec.format, material, writer.bytes());
      }
      return value;
    };
  }

  /// Look up `key`; on a miss invoke `compute` (a callable returning T by
  /// value) and store the result.  Throws cps::Error when the same key was
  /// populated with a different type, or when a digest collision is
  /// detected (stored key material differs).
  template <typename T, typename Fn>
  std::shared_ptr<const T> lookup(const std::string& key, const std::string& material,
                                  Fn&& compute) {
    std::promise<std::shared_ptr<const void>> promise;
    std::shared_future<std::shared_ptr<const void>> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        CPS_ENSURE(it->second.type == std::type_index(typeid(T)),
                   "FixtureCache: type mismatch for key '" + key + "'");
        CPS_ENSURE(it->second.material == material,
                   "FixtureCache: digest collision for key '" + key + "'");
        ++hits_;
        future = it->second.future;
      } else {
        ++misses_;
        future = promise.get_future().share();
        entries_.emplace(key, Entry{future, std::type_index(typeid(T)), material});
        owner = true;
      }
    }
    if (!owner)  // the future resolves outside the lock: waiting cannot deadlock
      return std::static_pointer_cast<const T>(future.get());
    try {
      auto value = std::shared_ptr<const T>(std::make_shared<T>(compute()));
      promise.set_value(std::static_pointer_cast<const void>(value));
      return value;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(key);  // release the key so a later request retries
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }

 public:
  /// Snapshot of the hit/miss/entry counters.
  Stats stats() const;

  /// Drop every entry (tests and long-lived embedders; experiments never
  /// need this — fixtures are immutable).
  void clear();

 private:
  template <typename T>
  friend class FixtureHandle;

  struct Entry {
    std::shared_future<std::shared_ptr<const void>> future;
    std::type_index type;
    std::string material;  ///< full key bytes, re-checked on every hit
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::shared_ptr<FixtureStore> store_;  ///< optional persistent level
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// The single fixture entry point: one handle binds WHAT identifies a
/// fixture (key + material) and HOW it persists (optional codec); get()
/// runs the two-level lookup.  Every combination is one constructor
/// choice plus an optional with_codec(), and every lookup funnels through
/// the same implementation:
///
///   auto fleet = FixtureHandle<Fleet>(key)         // content-addressed
///                    .with_codec(fleet_codec())    // optional disk layer
///                    .get([] { return make(); });  // compute on miss
///
/// Handles are cheap value types (a string, a hash, an optional codec);
/// build them ad hoc at the call site.  get() defaults to the process
/// singleton cache; tests pass their own FixtureCache.
template <typename T>
class FixtureHandle {
 public:
  /// Content-addressed handle: identity is the key's mixed-in content.
  explicit FixtureHandle(const FixtureKey& key)
      : key_(key.str()), material_(key.material()) {}

  /// Recipe-named handle for nullary fixtures: identity is the
  /// (versioned) name itself.
  explicit FixtureHandle(std::string key) : key_(std::move(key)), material_(key_) {}

  /// Attach the persistence codec; without one the handle is memory-only
  /// even when the cache has a store attached.
  FixtureHandle& with_codec(FixtureCodec<T> codec) {
    codec_ = std::move(codec);
    has_codec_ = true;
    return *this;
  }

  /// Look up; on a miss invoke `compute` (callable returning T by value)
  /// — via the disk layer when a codec is attached and `cache` has a
  /// store.  Same sharing, collision and error contracts as always
  /// (documented on FixtureCache).
  template <typename Fn>
  std::shared_ptr<const T> get(Fn&& compute,
                               FixtureCache& cache = FixtureCache::instance()) const {
    if (has_codec_)
      return cache.lookup<T>(
          key_, material_,
          cache.stored_compute<T>(key_, material_, codec_, std::forward<Fn>(compute)));
    return cache.lookup<T>(key_, material_, std::forward<Fn>(compute));
  }

  /// The rendered cache key ("<domain>/<16-hex>" or the recipe name).
  const std::string& key() const { return key_; }

 private:
  std::string key_;
  std::string material_;
  FixtureCodec<T> codec_;
  bool has_codec_ = false;
};

}  // namespace cps::runtime
