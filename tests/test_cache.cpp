// Tests for src/cache — the content-addressed result cache: SHA-256,
// canonical key derivation, the two-tier store (LRU memory + on-disk
// entries), fail-open corruption handling, mode semantics, concurrent
// lookups, and bit-identical cached flows (fit / buffering / yield).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/key.hpp"
#include "cache/manifest.hpp"
#include "cache/memoize.hpp"
#include "cache/sha256.hpp"
#include "cache/store.hpp"
#include "charlib/coeffs_io.hpp"
#include "deadline/deadline.hpp"
#include "exec/engine.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "sta/calibrated.hpp"
#include "tech/techfile.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "fit_options.hpp"
#include "synthetic_fit.hpp"

namespace pim::cache {
namespace {

using namespace pim::unit;

// Fresh scratch directory per test; pins the global mode/dir so tests
// never touch the user's ~/.cache/pim, and restores them afterwards.
class CacheDirFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pim_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    set_dir(dir_);
    set_mode(Mode::ReadWrite);
    Store::global().clear_memory();
  }
  void TearDown() override {
    Store::global().clear_memory();
    reset_mode();
    set_dir("");
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

CacheKey key_of(const std::string& tag) {
  KeyBuilder kb("test");
  kb.field("tag", tag);
  return kb.finish();
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message from FIPS 180-4 appendix B.2.
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Sha256 h;
  h.update("ab");
  h.update("");
  h.update("c");
  EXPECT_EQ(h.hex_digest(), sha256_hex("abc"));
  // Spans a block boundary.
  const std::string big(130, 'x');
  Sha256 h2;
  h2.update(big.substr(0, 63));
  h2.update(big.substr(63));
  EXPECT_EQ(h2.hex_digest(), sha256_hex(big));
}

TEST(Sha256, MillionAs) {
  // FIPS 180-4 long-message vector: one million repetitions of 'a'.
  EXPECT_EQ(sha256_hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HardwareAndPortableCompressionAgree) {
  EXPECT_EQ(detail::sha256_hex_portable("abc"), sha256_hex("abc"));
  // Random lengths streamed through Sha256 (the dispatched compression)
  // in random pieces, against the portable oracle.
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    std::string message(rng() % 4097, '\0');
    for (char& c : message) c = static_cast<char>(rng());
    Sha256 hasher;
    for (size_t at = 0; at < message.size();) {
      const size_t take = std::min<size_t>(message.size() - at, rng() % 300);
      hasher.update(message.data() + at, take);
      at += take;
    }
    ASSERT_EQ(hasher.hex_digest(), detail::sha256_hex_portable(message))
        << "length " << message.size();
  }
  if (!detail::sha_extensions()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  // The SHA-NI body straight against the portable loop, from random
  // chaining states and over runs of 1..16 blocks.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t blocks = 1 + rng() % 16;
    std::vector<uint8_t> data(64 * blocks);
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng());
    uint32_t hardware[8], portable[8];
    for (int i = 0; i < 8; ++i) hardware[i] = portable[i] = static_cast<uint32_t>(rng());
    detail::compress(hardware, data.data(), blocks);
    detail::compress_portable(portable, data.data(), blocks);
    ASSERT_TRUE(std::equal(hardware, hardware + 8, portable)) << "trial " << trial;
  }
}

TEST(KeyBuilder, StableAcrossRebuilds) {
  const auto build = [] {
    KeyBuilder kb("fit");
    kb.field("tech", "65nm");
    kb.field("length", 5.0e-3);
    kb.field("samples", 1000);
    kb.field("flag", true);
    kb.field("drives", std::vector<int>{2, 8, 32});
    return kb.finish();
  };
  const CacheKey a = build();
  const CacheKey b = build();
  EXPECT_EQ(a.kind, "fit");
  EXPECT_EQ(a.hex, b.hex);
  EXPECT_EQ(a.hex.size(), 64u);
}

TEST(KeyBuilder, OrderKindAndValuesAllMatter) {
  KeyBuilder ab("k");
  ab.field("a", 1);
  ab.field("b", 2);
  KeyBuilder ba("k");
  ba.field("b", 2);
  ba.field("a", 1);
  EXPECT_NE(ab.finish().hex, ba.finish().hex);

  KeyBuilder k1("fit");
  k1.field("a", 1);
  KeyBuilder k2("buffering");
  k2.field("a", 1);
  EXPECT_NE(k1.finish().hex, k2.finish().hex);

  // 17 significant digits: doubles that differ in the last ulp get
  // different keys.
  KeyBuilder d1("k");
  d1.field("x", 0.1 + 0.2);
  KeyBuilder d2("k");
  d2.field("x", 0.3);
  EXPECT_NE(d1.finish().hex, d2.finish().hex);
}

// Numeric fields render into a stack buffer; the key must be the one the
// canonical text renders give (17-digit format_sig, std::to_string).
TEST(KeyBuilder, NumericFieldsHashTheirCanonicalText) {
  const double doubles[] = {0.0, -0.0, 5e-3, -1.0 / 3.0, 6.02214076e23, 4.9e-324,
                            1.7976931348623157e308, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  const int64_t signeds[] = {0, -1, 17, std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()};
  KeyBuilder fast("k");
  KeyBuilder text("k");
  for (double v : doubles) {
    fast.field("d", v);
    text.field("d", format_sig(v, 17));
  }
  for (int64_t v : signeds) {
    fast.field("i", v);
    text.field("i", std::to_string(v));
  }
  EXPECT_EQ(fast.finish().hex, text.finish().hex);
}

// A name or value that carries the separator bytes (0x1f between name
// and value, 0x1e after a field, 0x1d the escape) is escaped before it is
// hashed, so one field can no longer spell two. A field without those
// bytes hashes exactly as before: the yield key of a fixed synthetic
// model, and its rolled-up params digest, are pinned.
TEST_F(CacheDirFixture, KeyFieldsEscapeSeparatorBytes) {
  const auto key = [](const std::vector<std::pair<std::string, std::string>>& fields) {
    KeyBuilder kb("k");
    for (const auto& [name, value] : fields) kb.field(name, value);
    return kb.finish().hex;
  };
  EXPECT_NE(key({{"a", "x\x1e" "b\x1f" "y"}}), key({{"a", "x"}, {"b", "y"}}));
  EXPECT_NE(key({{"a\x1f" "x", "y"}}), key({{"a", "x\x1f" "y"}}));
  // The escape byte is escaped too, so an escaped separator cannot be
  // spelled by hand.
  EXPECT_NE(key({{"a", "\x1d^"}}), key({{"a", "\x1e"}}));

  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;
  (void)monte_carlo_link_cached(model, ctx, design, 64, 7);
  const std::vector<Manifest> manifests = scan_manifests(dir_);
  ASSERT_EQ(manifests.size(), 1u);
  EXPECT_EQ(manifests[0].key.kind, "yield");
  EXPECT_EQ(manifests[0].key.hex,
            "35cbaac99347238596f6592e743c0b20fdaac3647a4b48ffb0e8212e3e601ee3");
  std::string params;
  for (const Facet& f : manifests[0].facets)
    if (f.type == "params") params = f.id;
  EXPECT_EQ(params, "f6ff382623f235c9f4a165b31a98659920524e1b9586cf6a5269c67521914133");
}

TEST(CacheMode, NameParsing) {
  Mode mode = Mode::Off;
  EXPECT_TRUE(mode_from_name("rw", mode));
  EXPECT_EQ(mode, Mode::ReadWrite);
  EXPECT_TRUE(mode_from_name("ro", mode));
  EXPECT_EQ(mode, Mode::ReadOnly);
  EXPECT_TRUE(mode_from_name("off", mode));
  EXPECT_EQ(mode, Mode::Off);
  EXPECT_FALSE(mode_from_name("bogus", mode));
  EXPECT_FALSE(mode_from_name("", mode));
  EXPECT_STREQ(mode_name(Mode::ReadWrite), "rw");
  EXPECT_STREQ(mode_name(Mode::ReadOnly), "ro");
  EXPECT_STREQ(mode_name(Mode::Off), "off");
}

TEST_F(CacheDirFixture, MemoryAndDiskRoundTrip) {
  Store& store = Store::global();
  const CacheKey key = key_of("roundtrip");
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key, "payload-bytes");
  const auto hit = store.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(key)));

  // Disk tier: a fresh memory tier (i.e. a new process) still hits.
  store.clear_memory();
  EXPECT_EQ(store.memory_entries(), 0u);
  const auto disk_hit = store.get(key);
  ASSERT_TRUE(disk_hit.has_value());
  EXPECT_EQ(*disk_hit, "payload-bytes");
  // The disk hit repopulates the memory tier.
  EXPECT_EQ(store.memory_entries(), 1u);
}

TEST_F(CacheDirFixture, EncodeDecodeEntry) {
  const CacheKey key = key_of("codec");
  const std::string payload = "line one\nline two\n";
  const std::string entry = Store::encode_entry(key, payload);
  const auto decoded = Store::decode_entry(key, entry);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), payload);

  // Any tampering is a named io_parse failure, not a crash.
  const auto truncated = Store::decode_entry(key, entry.substr(0, entry.size() / 2));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code(), ErrorCode::io_parse);
  std::string flipped = entry;
  flipped[flipped.size() - 3] ^= 1;  // corrupt the payload
  EXPECT_FALSE(Store::decode_entry(key, flipped).ok());
  const auto wrong_key = Store::decode_entry(key_of("other"), entry);
  ASSERT_FALSE(wrong_key.ok());
}

TEST_F(CacheDirFixture, CorruptDiskEntryFailsOpen) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("corrupt");
  store.put(key, "good payload");
  store.clear_memory();

  // Garble the on-disk entry behind the store's back.
  {
    std::ofstream out(store.entry_path(key), std::ios::trunc);
    out << "pim-cache v1\ngarbage\n";
  }
  const int64_t corrupt_before = obs::registry().counter("cache.corrupt").value();
  EXPECT_FALSE(store.get(key).has_value());  // miss, not an exception
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), corrupt_before + 1);
  // rw mode scrubs the bad entry so the recompute can re-register it.
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  store.put(key, "recomputed");
  store.clear_memory();
  const auto hit = store.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "recomputed");
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, LookupMetricsTrackTiersAndHitRate) {
  obs::registry().reset();
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("metrics");

  store.get(key);               // miss
  store.put(key, "12 bytes....");
  store.get(key);               // memory hit
  store.clear_memory();
  store.get(key);               // disk hit

  // hit_rate derives from the cache.hit/cache.miss counters, so after
  // one miss and two hits it reads 2/3 (and a registry reset clears it
  // with everything else — no bleed across api requests).
  EXPECT_DOUBLE_EQ(obs::registry().gauge("cache.hit_rate").value(), 2.0 / 3.0);

  // One load-latency sample per tier that actually served a hit.
  EXPECT_EQ(obs::registry().timer("cache.mem.load").count(), 1);
  EXPECT_EQ(obs::registry().timer("cache.disk.load").count(), 1);

  // Entry-size histogram: one sample from put, one from the disk hit,
  // both the payload size (the histogram machinery is unit-agnostic).
  obs::Timer& entry_bytes = obs::registry().timer("cache.entry.bytes");
  EXPECT_EQ(entry_bytes.count(), 2);
  EXPECT_EQ(entry_bytes.total_ns(), 24);  // 2 x 12-byte payload
  EXPECT_EQ(entry_bytes.min_ns(), 12);
  EXPECT_EQ(entry_bytes.max_ns(), 12);

  obs::set_enabled(false);
  obs::registry().reset();
}

TEST_F(CacheDirFixture, LruEvictionRespectsBudgets) {
  // The memory tier charges payload + manifest sidecar per entry, so the
  // budget is expressed in per-entry footprints (outside a Tracked scope
  // every entry carries the same empty-manifest image).
  const CacheKey a = key_of("a"), b = key_of("b"), c = key_of("c");
  const size_t footprint = 4 + encode_manifest(Manifest{a, {}, {}, 0}).size();
  const size_t budget = 2 * footprint;
  Store store(Store::Options{/*max_memory_bytes=*/budget, /*max_memory_entries=*/2,
                             /*disk_dir=*/dir_});
  store.put(a, "aaaa");
  store.put(b, "bbbb");
  EXPECT_EQ(store.memory_entries(), 2u);
  store.put(c, "cccc");  // evicts the least recently used (a)
  EXPECT_LE(store.memory_entries(), 2u);
  EXPECT_LE(store.memory_bytes(), budget);
  // Evicted entries are not lost — the disk tier still has them.
  const auto hit = store.get(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "aaaa");

  // The byte budget alone also evicts: one oversized payload cannot wedge
  // the tier above its budget.
  store.put(key_of("big"), std::string(2 * budget, 'x'));
  EXPECT_LE(store.memory_bytes(), budget);
}

TEST_F(CacheDirFixture, OffModeBypassesBothTiers) {
  set_mode(Mode::Off);
  Store& store = Store::global();
  const CacheKey key = key_of("off");
  store.put(key, "never stored");
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(store.memory_entries(), 0u);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
}

TEST_F(CacheDirFixture, ReadOnlyModeReadsButNeverWrites) {
  Store& store = Store::global();
  const CacheKey seeded = key_of("seeded");
  store.put(seeded, "from rw");  // seed the disk tier in rw mode
  store.clear_memory();

  set_mode(Mode::ReadOnly);
  const CacheKey fresh = key_of("fresh");
  store.put(fresh, "dropped");
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(fresh)));
  const auto hit = store.get(seeded);  // disk reads still work
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "from rw");
}

TEST_F(CacheDirFixture, ArmedFaultHarnessBypassesTheCache) {
  Store& store = Store::global();
  const CacheKey key = key_of("faulty");
  store.put(key, "cached before arming");
  fault::configure("io.open:0");  // armed, even at probability 0
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key_of("while-armed"), "dropped");
  fault::clear();
  EXPECT_TRUE(store.get(key).has_value());
  EXPECT_FALSE(store.get(key_of("while-armed")).has_value());
}

TEST_F(CacheDirFixture, ArmedFaultBypassCountsBypassNotHitOrMiss) {
  Store& store = Store::global();
  const CacheKey key = key_of("bypass-metrics");
  store.put(key, "payload");
  obs::set_enabled(true);
  auto& bypass = obs::registry().counter("cache.bypass");
  auto& hit = obs::registry().counter("cache.hit");
  auto& miss = obs::registry().counter("cache.miss");
  const int64_t bypass0 = bypass.value(), hit0 = hit.value(), miss0 = miss.value();
  fault::configure("io.open:0");
  EXPECT_FALSE(store.get(key).has_value());
  store.put(key_of("bypass-put"), "dropped");
  fault::clear();
  obs::set_enabled(false);
  EXPECT_EQ(bypass.value(), bypass0 + 2);  // one get + one put
  EXPECT_EQ(hit.value(), hit0);
  EXPECT_EQ(miss.value(), miss0);
}

// Concurrent get/put from exec workers at a pinned thread count; TSan
// builds (scripts/check_tsan.sh) run this with race detection.
TEST_F(CacheDirFixture, ConcurrentLookupsAreRaceFree) {
  exec::set_threads(8);
  Store& store = Store::global();
  const int kItems = 64;
  exec::parallel_for(kItems, [&](size_t i) {
    const CacheKey key = key_of("concurrent-" + std::to_string(i % 8));
    const std::string payload = "payload-" + std::to_string(i % 8);
    store.put(key, payload);
    const auto hit = store.get(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload);
  });
  exec::set_threads(0);
  for (int g = 0; g < 8; ++g) {
    const auto hit = store.get(key_of("concurrent-" + std::to_string(g)));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "payload-" + std::to_string(g));
  }
}

// ---------------------------------------------------------------------------
// Provenance manifests, the Tracked capture scope, and the invalidation
// engine (cache/manifest.hpp, cache/invalidate.hpp).
// ---------------------------------------------------------------------------

CacheKey fill_key(const std::string& kind, char fill) {
  return CacheKey{kind, std::string(64, fill)};
}

TEST(ManifestCodec, RoundTripPreservesEverything) {
  Manifest m;
  m.key = fill_key("fit", 'a');
  m.facets = {{"tech", "65nm@nominal", std::string(64, 'b')},
              {"corner", "nominal", "nominal|1|1|1|1|1|1|25|1"},
              {"params", "fit", std::string(64, 'c')}};
  m.upstream = {fill_key("fit", 'd'), fill_key("buffering", 'e')};
  m.cost_ns = 123456789;
  const std::string image = encode_manifest(m);
  const auto decoded = decode_manifest(image);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().key.kind, m.key.kind);
  EXPECT_EQ(decoded.value().key.hex, m.key.hex);
  EXPECT_EQ(decoded.value().facets, m.facets);
  ASSERT_EQ(decoded.value().upstream.size(), 2u);
  EXPECT_EQ(decoded.value().upstream[0].hex, m.upstream[0].hex);
  EXPECT_EQ(decoded.value().upstream[1].kind, "buffering");
  EXPECT_EQ(decoded.value().cost_ns, m.cost_ns);

  // Tampering is a named parse failure, never a crash.
  EXPECT_FALSE(decode_manifest("").ok());
  EXPECT_FALSE(decode_manifest("garbage\n").ok());
  EXPECT_FALSE(decode_manifest(image.substr(0, image.size() / 2)).ok());
}

TEST(TrackedScope, FacetCaptureAndNestedPublish) {
  Tracked outer;
  CacheKey inner_key;
  {
    Tracked inner;
    KeyBuilder kb("fit");
    kb.facet("tech", "65nm@nominal", std::string(64, 'a'));
    kb.field("samples", 1000);
    inner_key = kb.finish();
    // facet() recorded the typed input; finish() rolled the loose field
    // into one "params" facet and stamped the cache format version.
    bool tech = false, params = false, format = false;
    for (const Facet& f : inner.facets()) {
      if (f.type == "tech" && f.name == "65nm@nominal") tech = true;
      if (f.type == "params") params = true;
      if (f.type == "format") format = true;
    }
    EXPECT_TRUE(tech);
    EXPECT_TRUE(params);
    EXPECT_TRUE(format);
    const Manifest m = inner.manifest(inner_key);
    EXPECT_EQ(m.key.hex, inner_key.hex);
    EXPECT_EQ(m.facets, inner.facets());
    // publish() reports the finished artifact to the PARENT scope: this
    // is the upstream edge a consuming wrapper's manifest records.
    inner.publish(inner_key);
    EXPECT_TRUE(inner.upstream_keys().empty());
  }
  ASSERT_EQ(outer.upstream_keys().size(), 1u);
  EXPECT_EQ(outer.upstream_keys()[0].hex, inner_key.hex);
}

TEST_F(CacheDirFixture, PutWritesManifestSidecarWithTheEntry) {
  Store& store = Store::global();
  Tracked scope;
  KeyBuilder kb("fit");
  kb.facet("tech", "t@nominal", std::string(64, '1'));
  const CacheKey key = kb.finish();
  store.put(key, "payload");
  ASSERT_TRUE(std::filesystem::exists(store.manifest_path(key)));
  std::ifstream in(store.manifest_path(key), std::ios::binary);
  std::string image((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const auto m = decode_manifest(image);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().key.hex, key.hex);
  EXPECT_EQ(m.value().facets, scope.facets());
}

TEST_F(CacheDirFixture, EntryWithoutManifestFailsOpenAsCorrupt) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("no-sidecar");
  store.put(key, "payload");
  store.clear_memory();
  std::filesystem::remove(store.manifest_path(key));
  const int64_t before = obs::registry().counter("cache.corrupt").value();
  EXPECT_FALSE(store.get(key).has_value());
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), before + 1);
  // rw mode scrubs the damaged pair so a recompute can re-register it.
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, ManifestWriteFailureDowngradesToFullEntryMiss) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("sidecar-blocked");
  // Occupy the sidecar path with a directory: the atomic rename cannot
  // land, so the put must skip the entry file too — the disk tier never
  // holds an entry without provenance.
  std::filesystem::create_directories(store.manifest_path(key));
  const int64_t before = obs::registry().counter("cache.manifest.fail").value();
  store.put(key, "payload");
  EXPECT_EQ(obs::registry().counter("cache.manifest.fail").value(), before + 1);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  store.clear_memory();
  EXPECT_FALSE(store.get(key).has_value());
  obs::set_enabled(false);
}

TEST_F(CacheDirFixture, MemoryTierBytesIncludeManifestSidecar) {
  Store& store = Store::global();
  const CacheKey key = key_of("bytes");
  store.put(key, "0123456789");  // outside a scope: empty manifest, still encoded
  const std::string image = encode_manifest(Manifest{key, {}, {}, 0});
  EXPECT_EQ(store.memory_bytes(), 10u + image.size());
}

TEST_F(CacheDirFixture, LruBudgetCountsManifestBytes) {
  Store store(Store::Options{/*max_memory_bytes=*/256, /*max_memory_entries=*/64,
                             /*disk_dir=*/dir_});
  Tracked scope;
  for (int i = 0; i < 6; ++i)
    scope.facet({"tech", "corner-" + std::to_string(i),
                 std::string(64, static_cast<char>('a' + i))});
  // Six 16-byte payloads (96 bytes) fit the budget on their own; their
  // sidecars (several hundred bytes each) do not, so the byte-accounting
  // fix must evict.
  for (int i = 0; i < 6; ++i)
    store.put(key_of("lru-manifest-" + std::to_string(i)), std::string(16, 'x'));
  EXPECT_LE(store.memory_bytes(), 256u);
  EXPECT_LT(store.memory_entries(), 6u);
}

TEST(DirtyCone, DirectFacetMatchAndUpstreamPropagation) {
  Manifest fit_nom;
  fit_nom.key = fill_key("fit", 'a');
  fit_nom.facets = {{"tech", "65nm@nominal", "hash-old"},
                    {"corner", "nominal", "id-nom"}};
  Manifest fit_ss;
  fit_ss.key = fill_key("fit", 'b');
  fit_ss.facets = {{"tech", "65nm@ss", "hash-ss"}, {"corner", "ss", "id-ss"}};
  Manifest buf;
  buf.key = fill_key("buffering", 'c');
  buf.facets = {{"params", "buffering", "p"}};
  buf.upstream = {fit_nom.key};
  Manifest mc;
  mc.key = fill_key("yield", 'd');
  mc.facets = {{"corner", "nominal", "id-nom"}, {"samples", "mc", "500/2026"}};
  mc.upstream = {fit_nom.key};
  const std::vector<Manifest> manifests = {fit_nom, fit_ss, buf, mc};

  const auto contains = [](const std::vector<CacheKey>& keys, const CacheKey& k) {
    for (const CacheKey& key : keys)
      if (key.kind == k.kind && key.hex == k.hex) return true;
    return false;
  };

  // A nominal-corner tech edit dirties the fit directly and, through
  // upstream edges, the buffering search and Monte-Carlo run built on
  // it; the ss-corner fit is untouched.
  DirtyCone cone = dirty_cone(manifests, {{"tech", "65nm@nominal", "hash-NEW"}});
  EXPECT_EQ(cone.dirty.size(), 3u);
  EXPECT_TRUE(contains(cone.dirty, fit_nom.key));
  EXPECT_TRUE(contains(cone.dirty, buf.key));
  EXPECT_TRUE(contains(cone.dirty, mc.key));
  ASSERT_EQ(cone.reuse.size(), 1u);
  EXPECT_TRUE(contains(cone.reuse, fit_ss.key));

  // Same (type, name, id) is an unchanged input: nothing is dirty.
  cone = dirty_cone(manifests, {{"tech", "65nm@nominal", "hash-old"}});
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 4u);

  // A single-corner retune dirties exactly that corner's cone.
  cone = dirty_cone(manifests, {{"corner", "ss", "id-ss-NEW"}});
  ASSERT_EQ(cone.dirty.size(), 1u);
  EXPECT_TRUE(contains(cone.dirty, fit_ss.key));

  // A (type, name) no manifest consumed is irrelevant to all of them.
  cone = dirty_cone(manifests, {{"corner", "ff", "whatever"}});
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 4u);
}

TEST_F(CacheDirFixture, ScanManifestsAndEvictKeys) {
  Store& store = Store::global();
  CacheKey keys[3];
  for (int i = 0; i < 3; ++i) {
    Tracked scope;
    KeyBuilder kb("fit");
    kb.facet("tech", "t@c" + std::to_string(i), std::string(64, '0'));
    keys[i] = kb.finish();
    store.put(keys[i], "payload-" + std::to_string(i));
  }
  EXPECT_EQ(scan_manifests(dir_).size(), 3u);
  const size_t removed = evict_keys(store, {keys[0], keys[2]});
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(keys[0])));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(keys[0])));
  EXPECT_FALSE(store.get(keys[0]).has_value());
  EXPECT_TRUE(store.get(keys[1]).has_value());
  EXPECT_EQ(scan_manifests(dir_).size(), 1u);
  // Evicting an absent key is a no-op, not an error.
  EXPECT_EQ(evict_keys(store, {keys[0]}), 0u);
}

TEST_F(CacheDirFixture, CacheStatsCensusPerKind) {
  Store& store = Store::global();
  store.put(fill_key("fit", '1'), "aaaa");
  store.put(fill_key("fit", '2'), "bbbbbbbb");
  store.put(fill_key("yield", '3'), "cc");
  const std::vector<KindStats> stats = cache_stats(dir_);
  ASSERT_EQ(stats.size(), 2u);  // kind-sorted
  EXPECT_EQ(stats[0].kind, "fit");
  EXPECT_EQ(stats[0].entries, 2u);
  EXPECT_GT(stats[0].payload_bytes, 0u);
  EXPECT_GT(stats[0].manifest_bytes, 0u);
  EXPECT_EQ(stats[1].kind, "yield");
  EXPECT_EQ(stats[1].entries, 1u);
}

TEST_F(CacheDirFixture, PruneRemovesOldestPairsFirst) {
  Store& store = Store::global();
  const CacheKey old_key = fill_key("fit", '1');
  const CacheKey new_key = fill_key("fit", '2');
  store.put(old_key, std::string(100, 'o'));
  store.put(new_key, std::string(100, 'n'));
  // Age the first pair well behind the second.
  const auto stale = std::filesystem::last_write_time(store.entry_path(new_key)) -
                     std::chrono::hours(1);
  std::filesystem::last_write_time(store.entry_path(old_key), stale);
  std::filesystem::last_write_time(store.manifest_path(old_key), stale);
  const size_t budget = std::filesystem::file_size(store.entry_path(new_key)) +
                        std::filesystem::file_size(store.manifest_path(new_key));
  const PruneResult pruned = prune_cache(dir_, budget);
  EXPECT_EQ(pruned.scanned_entries, 2u);
  EXPECT_EQ(pruned.removed_entries, 1u);
  EXPECT_LE(pruned.kept_bytes, budget);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(old_key)));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(old_key)));
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(new_key)));
  // Pruning to zero empties the cache entirely.
  EXPECT_EQ(prune_cache(dir_, 0).removed_entries, 1u);
  EXPECT_TRUE(cache_stats(dir_).empty());
}

TEST_F(CacheDirFixture, VerifyScrubsOrphansAndCorruptPairs) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey good = fill_key("fit", '1');
  const CacheKey orphan = fill_key("fit", '2');
  const CacheKey bare = fill_key("fit", '3');
  const CacheKey corrupt = fill_key("fit", '4');
  for (const CacheKey* k : {&good, &orphan, &bare, &corrupt})
    store.put(*k, "payload");
  std::filesystem::remove(store.entry_path(orphan));     // manifest without entry
  std::filesystem::remove(store.manifest_path(bare));    // entry without manifest
  {
    std::ofstream out(store.manifest_path(corrupt), std::ios::trunc);
    out << "not a manifest\n";
  }
  const int64_t before = obs::registry().counter("cache.corrupt").value();
  const VerifyResult v = verify_cache(dir_);
  EXPECT_EQ(v.entries, 3u);
  EXPECT_EQ(v.manifests, 3u);
  EXPECT_EQ(v.orphan_manifests, 1u);
  EXPECT_EQ(v.unmanifested_entries, 1u);
  EXPECT_EQ(v.corrupt_manifests, 1u);
  EXPECT_EQ(v.scrubbed(), 3u);
  EXPECT_EQ(obs::registry().counter("cache.corrupt").value(), before + 3);
  // Only the consistent pair survives; a second pass is clean.
  EXPECT_TRUE(std::filesystem::exists(store.entry_path(good)));
  EXPECT_TRUE(std::filesystem::exists(store.manifest_path(good)));
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(bare)));
  EXPECT_FALSE(std::filesystem::exists(store.manifest_path(orphan)));
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(corrupt)));
  EXPECT_EQ(verify_cache(dir_).scrubbed(), 0u);
  obs::set_enabled(false);
}

// Payload bytes the line codec wrote before the per-struct bindings
// existed. Entries already on disk hold exactly this text, so the
// bindings must reproduce it byte for byte and read it back.
constexpr const char* kGoldenBufferingPayload =
    "feasible 1\n"
    "kind 1\n"
    "drive 16\n"
    "repeaters 7\n"
    "miller 0\n"
    "layer 1\n"
    "cost 0.10000000000000001\n"
    "evaluations 240\n"
    "delay 3.3e-10\n"
    "output_slew 3.3333333333333335e-11\n"
    "switched_cap 4.5599999999999998e-13\n"
    "dynamic_power 0.00125\n"
    "leakage_power 1.9999999999999999e-06\n"
    "repeater_area 1.6999999999999999e-11\n"
    "wire_area 6e-09\n";

constexpr const char* kGoldenMonteCarloPayload =
    "nominal_delay 1.2e-10\n"
    "mean_delay 1.2642857142857143e-10\n"
    "sigma_delay 1.3e-11\n"
    "mean_power 0.0030000000000000001\n"
    "failed_samples 2\n"
    "delays 1.0999999999999999e-10 1.2e-10 1.2500000000000001e-10 "
    "1.4285714285714285e-10\n";

TEST(PayloadBinding, BufferingResultMatchesGoldenBytes) {
  BufferingResult r;
  r.feasible = true;
  r.design.kind = CellKind::Buffer;
  r.design.drive = 16;
  r.design.num_repeaters = 7;
  r.design.miller_factor = 0.0;
  r.layer = WireLayer::Intermediate;
  r.cost = 0.1;
  r.evaluations = 240;
  r.estimate.delay = 3.3e-10;
  r.estimate.output_slew = 1.0e-10 / 3.0;
  r.estimate.switched_cap = 4.56e-13;
  r.estimate.dynamic_power = 1.25e-3;
  r.estimate.leakage_power = 2e-6;
  r.estimate.repeater_area = 1.7e-11;
  r.estimate.wire_area = 6.0e-9;
  EXPECT_EQ(Payload<BufferingResult>::encode(r), kGoldenBufferingPayload);

  const BufferingResult d = Payload<BufferingResult>::decode(kGoldenBufferingPayload);
  EXPECT_EQ(d.feasible, r.feasible);
  EXPECT_EQ(d.design.kind, r.design.kind);
  EXPECT_EQ(d.design.drive, r.design.drive);
  EXPECT_EQ(d.design.num_repeaters, r.design.num_repeaters);
  EXPECT_EQ(d.design.miller_factor, r.design.miller_factor);
  EXPECT_EQ(d.layer, r.layer);
  EXPECT_EQ(d.cost, r.cost);
  EXPECT_EQ(d.evaluations, r.evaluations);
  EXPECT_EQ(d.estimate.delay, r.estimate.delay);
  EXPECT_EQ(d.estimate.output_slew, r.estimate.output_slew);
  EXPECT_EQ(d.estimate.switched_cap, r.estimate.switched_cap);
  EXPECT_EQ(d.estimate.dynamic_power, r.estimate.dynamic_power);
  EXPECT_EQ(d.estimate.leakage_power, r.estimate.leakage_power);
  EXPECT_EQ(d.estimate.repeater_area, r.estimate.repeater_area);
  EXPECT_EQ(d.estimate.wire_area, r.estimate.wire_area);
}

TEST(PayloadBinding, MonteCarloResultMatchesGoldenBytes) {
  MonteCarloResult r;
  r.delays = {1.1e-10, 1.2e-10, 1.25e-10, 1.0e-9 / 7.0};
  r.nominal_delay = 1.2e-10;
  r.mean_delay = 1.2642857142857143e-10;
  r.sigma_delay = 1.3e-11;
  r.mean_power = 3e-3;
  r.failed_samples = 2;
  EXPECT_EQ(Payload<MonteCarloResult>::encode(r), kGoldenMonteCarloPayload);

  const MonteCarloResult d = Payload<MonteCarloResult>::decode(kGoldenMonteCarloPayload);
  EXPECT_EQ(d.delays, r.delays);
  EXPECT_EQ(d.nominal_delay, r.nominal_delay);
  EXPECT_EQ(d.mean_delay, r.mean_delay);
  EXPECT_EQ(d.sigma_delay, r.sigma_delay);
  EXPECT_EQ(d.mean_power, r.mean_power);
  EXPECT_EQ(d.failed_samples, r.failed_samples);
}

// Encoding a completed run is finalization. A 20,000-delay payload
// (ten chunks, formatted in an exec region) comes out whole under a
// budget that has already expired, and under a deadline-expire site that
// would fire on every poll, which never draws.
TEST(PayloadBinding, MonteCarloEncodeCompletesPastAStop) {
  constexpr int kDelays = 20000;
  Rng rng(2026);
  MonteCarloResult r;
  for (int i = 0; i < kDelays; ++i) r.delays.push_back(6e-10 * rng.normal(1.0, 0.05));
  std::sort(r.delays.begin(), r.delays.end());
  r.nominal_delay = 6e-10;
  r.mean_delay = r.delays[kDelays / 2];
  r.sigma_delay = 3e-11;
  r.mean_power = 1e-3;
  r.failed_samples = 3;
  std::string golden;
  char buf[32];
  for (const auto& [key, v] : {std::pair{"nominal_delay", r.nominal_delay},
                               {"mean_delay", r.mean_delay},
                               {"sigma_delay", r.sigma_delay},
                               {"mean_power", r.mean_power}}) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    golden.append(key).append(" ").append(buf).append("\n");
  }
  golden += "failed_samples 3\ndelays";
  for (double d : r.delays) {
    std::snprintf(buf, sizeof buf, " %.17g", d);
    golden += buf;
  }
  golden += '\n';

  exec::set_threads(4);
  EXPECT_TRUE(Payload<MonteCarloResult>::encode(r) == golden);

  deadline::set_budget_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(deadline::remaining_ns(), 0);
  EXPECT_TRUE(Payload<MonteCarloResult>::encode(r) == golden);
  deadline::reset();

  fault::configure("deadline-expire:1.0");
  EXPECT_TRUE(Payload<MonteCarloResult>::encode(r) == golden);
  EXPECT_EQ(fault::fired_count(fault::kDeadlineExpire), 0);
  fault::clear();
  exec::set_threads(0);
}

TEST(PayloadBinding, MissingOrMalformedFieldsThrow) {
  EXPECT_THROW(Payload<MonteCarloResult>::decode("nominal_delay 1e-10\n"), Error);
  EXPECT_THROW(Payload<BufferingResult>::decode("garbage"), Error);
  std::string bad = kGoldenBufferingPayload;
  bad.replace(bad.find("drive 16"), 8, "drive 1 6");
  EXPECT_THROW(Payload<BufferingResult>::decode(bad), Error);
}

// A minimal memoized type: `partial` opts a result out of caching.
struct Probe {
  double value = 0.0;
  bool partial = false;
};

template <typename B>
void bind(B& b, Probe& v) {
  b.field("value", v.value);
}

TEST_F(CacheDirFixture, MemoizeScrubsCorruptPayloadEvenWhenRecomputeIsPartial) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const CacheKey key = key_of("probe");
  store.put(key, "not a probe payload\n");  // digest-valid, unparsable
  const obs::Counter& corrupt = obs::registry().counter("cache.corrupt");
  const int64_t before = corrupt.value();
  int computes = 0;
  const auto run = [&] {
    Tracked outer;
    const Probe p = memoize<Probe>([&] { return key; },
                                   [&] {
                                     ++computes;
                                     return Probe{1.5, true};
                                   });
    EXPECT_EQ(p.value, 1.5);
    // Partial results are never published (nor stored).
    EXPECT_TRUE(outer.upstream_keys().empty());
  };
  run();
  EXPECT_EQ(corrupt.value(), before + 1);
  EXPECT_FALSE(std::filesystem::exists(store.entry_path(key)));
  EXPECT_FALSE(store.get(key).has_value());
  // The scrubbed entry is a clean miss: no second corrupt count.
  run();
  EXPECT_EQ(corrupt.value(), before + 1);
  EXPECT_EQ(computes, 2);
  obs::set_enabled(false);
}

// End-to-end bit-identity of the cached flows, on a reduced deck so the
// cold pass stays fast. One fixture characterizes once; every case then
// proves warm == cold byte for byte.
class CachedFlowsFixture : public CacheDirFixture {
 protected:
  static TechnologyFit fit_65nm(const CompositionOptions& comp = trimmed_composition()) {
    return calibrated_fit(technology(TechNode::N65), Corner{}, "",
                          trimmed_inverter_characterization(), comp);
  }
  static LinkContext ctx() {
    LinkContext c;
    c.length = 3 * mm;
    c.input_slew = 100 * ps;
    c.frequency = technology(TechNode::N65).clock_frequency;
    return c;
  }
};

TEST_F(CachedFlowsFixture, FitBufferingAndYieldHitsAreBitIdentical) {
  const TechnologyFit cold = fit_65nm();
  // Fresh memory tier: the warm pass must come from the disk entry.
  Store::global().clear_memory();
  const TechnologyFit warm = fit_65nm();
  EXPECT_EQ(write_fit(warm), write_fit(cold));

  // A different deck parameter is a different key — no false sharing.
  CompositionOptions other = trimmed_composition();
  other.chain_lengths = {1, 2};
  const TechnologyFit refit = fit_65nm(other);
  EXPECT_NE(write_fit(refit), write_fit(cold));

  const ProposedModel model(technology(TechNode::N65), cold);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult buf_cold = optimize_buffering_cached(model, ctx(), opt);
  Store::global().clear_memory();
  const BufferingResult buf_warm = optimize_buffering_cached(model, ctx(), opt);
  EXPECT_EQ(buf_warm.feasible, buf_cold.feasible);
  EXPECT_EQ(buf_warm.design.kind, buf_cold.design.kind);
  EXPECT_EQ(buf_warm.design.drive, buf_cold.design.drive);
  EXPECT_EQ(buf_warm.design.num_repeaters, buf_cold.design.num_repeaters);
  EXPECT_EQ(buf_warm.cost, buf_cold.cost);  // EQ, not NEAR: bit-identical
  EXPECT_EQ(buf_warm.estimate.delay, buf_cold.estimate.delay);
  EXPECT_EQ(buf_warm.evaluations, buf_cold.evaluations);
  // The warm search ran zero model evaluations — it was a lookup.
  const BufferingResult direct = optimize_buffering(model, ctx(), opt);
  EXPECT_EQ(buf_warm.cost, direct.cost);

  LinkDesign design = buf_cold.design;
  const MonteCarloResult mc_cold =
      monte_carlo_link_cached(model, ctx(), design, 500, 2026);
  Store::global().clear_memory();
  const MonteCarloResult mc_warm =
      monte_carlo_link_cached(model, ctx(), design, 500, 2026);
  EXPECT_EQ(mc_warm.delays, mc_cold.delays);  // exact vector equality
  EXPECT_EQ(mc_warm.nominal_delay, mc_cold.nominal_delay);
  EXPECT_EQ(mc_warm.mean_delay, mc_cold.mean_delay);
  EXPECT_EQ(mc_warm.sigma_delay, mc_cold.sigma_delay);
  EXPECT_EQ(mc_warm.mean_power, mc_cold.mean_power);
  EXPECT_EQ(mc_warm.failed_samples, mc_cold.failed_samples);
  // And equals the uncached computation (the cache is transparent).
  const MonteCarloResult direct_mc = monte_carlo_link(model, ctx(), design, 500, 2026);
  EXPECT_EQ(mc_warm.delays, direct_mc.delays);

  // A different seed/sample-count is a different key.
  const MonteCarloResult other_seed =
      monte_carlo_link_cached(model, ctx(), design, 500, 2027);
  EXPECT_NE(other_seed.delays, mc_cold.delays);
}

// The key a cached call resolves, read back from an enclosing scope
// (every resolved cached call publishes its key there).
template <typename Fn>
CacheKey published_key(Fn&& call) {
  Tracked outer;
  call();
  EXPECT_EQ(outer.upstream_keys().size(), 1u);
  return outer.upstream_keys().at(0);
}

TEST_F(CachedFlowsFixture, WrappersRecordProvenanceAndConesPropagate) {
  TechnologyFit fit;
  const CacheKey fit_key = published_key([&] { fit = fit_65nm(); });
  const ProposedModel model(technology(TechNode::N65), fit, {fit_key});
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult buf = optimize_buffering_cached(model, ctx(), opt);
  (void)monte_carlo_link_cached(model, ctx(), buf.design, 200, 2026);

  const std::vector<Manifest> manifests = scan_manifests(dir_);
  ASSERT_EQ(manifests.size(), 3u);
  const Manifest* fit_m = nullptr;
  const Manifest* buf_m = nullptr;
  const Manifest* mc_m = nullptr;
  for (const Manifest& m : manifests) {
    if (m.key.kind == "fit") fit_m = &m;
    if (m.key.kind == "buffering") buf_m = &m;
    if (m.key.kind == "yield") mc_m = &m;
  }
  ASSERT_NE(fit_m, nullptr);
  ASSERT_NE(buf_m, nullptr);
  ASSERT_NE(mc_m, nullptr);

  const auto facet_types = [](const Manifest& m) {
    std::vector<std::string> out;
    for (const Facet& f : m.facets) out.push_back(f.type);
    return out;
  };
  const auto has = [](const std::vector<std::string>& v, const char* s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  // The fit consumed the derated tech content and the corner identity.
  EXPECT_TRUE(has(facet_types(*fit_m), "tech"));
  EXPECT_TRUE(has(facet_types(*fit_m), "corner"));
  EXPECT_TRUE(has(facet_types(*fit_m), "format"));
  // Buffering and Monte-Carlo both derived from the cached fit: the
  // model signature's coefficient token resolved to its artifact key.
  ASSERT_EQ(buf_m->upstream.size(), 1u);
  EXPECT_EQ(buf_m->upstream[0].hex, fit_m->key.hex);
  ASSERT_EQ(mc_m->upstream.size(), 1u);
  EXPECT_EQ(mc_m->upstream[0].hex, fit_m->key.hex);
  EXPECT_TRUE(has(facet_types(*mc_m), "samples"));
  EXPECT_TRUE(has(facet_types(*mc_m), "corner"));

  // Unchanged inputs: the facets the live technology produces match the
  // ones the manifests recorded, so everything is reusable. This is the
  // consistency contract between fit_cache_key and technology_facets.
  DirtyCone cone =
      dirty_cone(manifests, technology_facets(technology(TechNode::N65)));
  EXPECT_TRUE(cone.dirty.empty());
  EXPECT_EQ(cone.reuse.size(), 3u);

  // A nominal-corner tech edit dirties the fit and drags the buffering
  // search and the Monte-Carlo run through the upstream edges.
  std::vector<Facet> edited;
  for (const Facet& f : fit_m->facets)
    if (f.type == "tech") edited.push_back({f.type, f.name, "edited:" + f.id});
  ASSERT_FALSE(edited.empty());
  cone = dirty_cone(manifests, edited);
  EXPECT_EQ(cone.dirty.size(), 3u);
  EXPECT_TRUE(cone.reuse.empty());

  // Retuning a corner this flow never touched dirties nothing.
  cone = dirty_cone(manifests, {{"corner", "ss", "retuned-id"}});
  EXPECT_TRUE(cone.dirty.empty());
}

// Payload-level fail-open: an entry whose digest verifies but whose
// payload does not parse is counted once in cache.corrupt, recomputed to
// exactly the uncached result, and rewritten, so the next lookup is a
// clean disk hit.
TEST_F(CachedFlowsFixture, UnparsablePayloadsFailOpenAndAreRewritten) {
  obs::set_enabled(true);
  Store& store = Store::global();
  const obs::Counter& corrupt = obs::registry().counter("cache.corrupt");
  const obs::Counter& disk_hit = obs::registry().counter("cache.disk.hit");
  // Plants a digest-valid, unparsable payload under `key`, then checks
  // that `cached()` fails open to a result `same` accepts and rewrites
  // the entry.
  const auto check = [&](const CacheKey& key, const auto& cached, const auto& same) {
    store.put(key, "not a " + key.kind + " payload\n");
    store.clear_memory();
    const int64_t corrupt_before = corrupt.value();
    EXPECT_TRUE(same(cached())) << key.kind;
    EXPECT_EQ(corrupt.value(), corrupt_before + 1) << key.kind;
    store.clear_memory();
    const int64_t disk_before = disk_hit.value();
    EXPECT_TRUE(same(cached())) << key.kind;
    EXPECT_EQ(disk_hit.value(), disk_before + 1) << key.kind;
    EXPECT_EQ(corrupt.value(), corrupt_before + 1) << key.kind;
  };

  TechnologyFit cold;
  const auto fit = [&] { return fit_65nm(); };
  const CacheKey fit_key = published_key([&] { cold = fit(); });
  ASSERT_EQ(fit_key.kind, "fit");
  check(fit_key, fit,
        [&](const TechnologyFit& f) { return write_fit(f) == write_fit(cold); });

  const ProposedModel model(technology(TechNode::N65), cold);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult direct = optimize_buffering(model, ctx(), opt);
  const auto buffering = [&] { return optimize_buffering_cached(model, ctx(), opt); };
  const CacheKey buf_key = published_key(buffering);
  ASSERT_EQ(buf_key.kind, "buffering");
  check(buf_key, buffering, [&](const BufferingResult& r) {
    return Payload<BufferingResult>::encode(r) ==
               Payload<BufferingResult>::encode(direct) &&
           r.estimate.total_power() == direct.estimate.total_power();
  });

  const MonteCarloResult direct_mc =
      monte_carlo_link(model, ctx(), direct.design, 300, 7);
  const auto yield = [&] {
    return monte_carlo_link_cached(model, ctx(), direct.design, 300, 7);
  };
  const CacheKey mc_key = published_key(yield);
  ASSERT_EQ(mc_key.kind, "yield");
  check(mc_key, yield, [&](const MonteCarloResult& r) {
    return Payload<MonteCarloResult>::encode(r) ==
               Payload<MonteCarloResult>::encode(direct_mc) &&
           r.requested_samples == direct_mc.requested_samples &&
           r.partial == direct_mc.partial;
  });
  obs::set_enabled(false);
}

// The incremental contract: after an edit invalidates a cone, the warm
// rerun rebuilds exactly the stale artifacts and the results are
// bit-identical to a cold rerun at ANY thread count. TSan builds
// (scripts/check_tsan.sh) run this with race detection.
TEST_F(CachedFlowsFixture, IncrementalRecomputeIsBitIdenticalAcrossThreads) {
  const TechnologyFit cold_fit = fit_65nm();
  const ProposedModel cold_model(technology(TechNode::N65), cold_fit);
  BufferingOptions opt;
  opt.weight = 0.5;
  const BufferingResult cold_buf = optimize_buffering_cached(cold_model, ctx(), opt);
  const MonteCarloResult cold_mc =
      monte_carlo_link_cached(cold_model, ctx(), cold_buf.design, 200, 2026);

  for (const int threads : {1, 2, 8}) {
    exec::set_threads(threads);
    // Evict the full cone, as `pim cache invalidate` would after a tech
    // edit, then recompute warm.
    std::vector<CacheKey> stale;
    for (const Manifest& m : scan_manifests(dir_)) stale.push_back(m.key);
    evict_keys(Store::global(), stale);
    const TechnologyFit refit = fit_65nm();
    EXPECT_EQ(write_fit(refit), write_fit(cold_fit)) << "threads=" << threads;
    const ProposedModel model(technology(TechNode::N65), refit);
    const BufferingResult rebuf = optimize_buffering_cached(model, ctx(), opt);
    EXPECT_EQ(rebuf.cost, cold_buf.cost) << "threads=" << threads;
    EXPECT_EQ(rebuf.design.num_repeaters, cold_buf.design.num_repeaters);
    EXPECT_EQ(rebuf.estimate.delay, cold_buf.estimate.delay);
    const MonteCarloResult remc =
        monte_carlo_link_cached(model, ctx(), rebuf.design, 200, 2026);
    EXPECT_EQ(remc.delays, cold_mc.delays) << "threads=" << threads;
    EXPECT_EQ(remc.mean_delay, cold_mc.mean_delay);
    EXPECT_EQ(remc.sigma_delay, cold_mc.sigma_delay);
  }
  exec::set_threads(0);
}

}  // namespace
}  // namespace pim::cache
