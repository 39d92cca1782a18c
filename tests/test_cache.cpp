#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/key.hpp"
#include "cache/store.hpp"
#include "cache/warm.hpp"
#include "fuzz/generator.hpp"
#include "npn_reference.hpp"
#include "obs/metrics.hpp"
#include "robust/integrity.hpp"
#include "rqfp/simulate.hpp"
#include "tt/truth_table.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace rcgp::cache {
namespace {

std::string temp_path(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "rcgp_cache_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  return path.string();
}

std::vector<tt::TruthTable> random_spec(util::Rng& rng, unsigned vars,
                                        unsigned outputs) {
  return fuzz::random_tables(rng, vars, outputs);
}

/// A uniformly random joint transform of an `vars`-input, `outputs`-output
/// specification.
SpecTransform random_transform(util::Rng& rng, unsigned vars,
                               std::size_t outputs) {
  SpecTransform tr;
  for (unsigned i = vars; i-- > 1;) {
    std::swap(tr.perm[i], tr.perm[rng.below(i + 1)]);
  }
  tr.input_phase = static_cast<unsigned>(rng.below(1u << vars));
  tr.output_phase = static_cast<std::uint32_t>(rng.below(1u << outputs));
  return tr;
}

namespace reference {

// cache::canonicalize as it was before the NPN word engine, kept verbatim
// (one per-bit tt::reference::npn_apply per output and transform).

tt::NpnTransform output_transform(const SpecTransform& tr, std::size_t o) {
  tt::NpnTransform r;
  r.perm = tr.perm;
  r.input_phase = tr.input_phase;
  r.output_phase = ((tr.output_phase >> o) & 1) != 0;
  return r;
}

CanonicalSpec canonicalize(std::span<const tt::TruthTable> spec) {
  const unsigned n = spec[0].num_vars();
  CanonicalSpec best;
  best.tables.assign(spec.begin(), spec.end());
  if (n > kMaxJointVars) {
    // Identity transform: wide specs cache under their exact tables.
    best.key = spec_key(best.tables);
    return best;
  }

  // Per-output polarity canonicalization first: under any fixed input
  // transform, output o contributes min(t, ~t).
  const auto polarized = [&](const SpecTransform& tr,
                             std::vector<tt::TruthTable>& out,
                             std::uint32_t& phase) {
    out.clear();
    phase = 0;
    for (std::size_t o = 0; o < spec.size(); ++o) {
      tt::NpnTransform single = output_transform(tr, o);
      tt::TruthTable pos = tt::reference::npn_apply(spec[o], single);
      tt::TruthTable neg = ~pos;
      if (neg < pos) {
        phase |= std::uint32_t{1} << o;
        out.push_back(std::move(neg));
      } else {
        out.push_back(std::move(pos));
      }
    }
  };

  bool first = true;
  std::vector<tt::TruthTable> cand;
  SpecTransform tr;
  do {
    for (unsigned phase = 0; phase < (1u << n); ++phase) {
      tr.input_phase = phase;
      tr.output_phase = 0;
      std::uint32_t out_phase = 0;
      polarized(tr, cand, out_phase);
      if (first || std::lexicographical_compare(cand.begin(), cand.end(),
                                                best.tables.begin(),
                                                best.tables.end())) {
        best.tables = cand;
        best.transform = tr;
        best.transform.output_phase = out_phase;
        first = false;
      }
    }
  } while (std::next_permutation(tr.perm.begin(), tr.perm.begin() + n));
  best.key = spec_key(best.tables);
  return best;
}

} // namespace reference

/// Every single-output spec of 0..3 inputs, every 2-output spec of <= 2
/// inputs, 2000 fixed-seed random 4-input specs of 1..4 outputs, and one
/// 4-input spec of 32 outputs.
std::vector<std::vector<tt::TruthTable>> canonicalize_corpus() {
  const auto table = [](unsigned nv, std::uint64_t v) {
    tt::TruthTable t(nv);
    t.set_word(0, v);
    return t;
  };
  std::vector<std::vector<tt::TruthTable>> corpus;
  for (unsigned nv = 0; nv <= 3; ++nv) {
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << (1u << nv)); ++v) {
      corpus.push_back({table(nv, v)});
    }
  }
  for (unsigned nv = 0; nv <= 2; ++nv) {
    const std::uint64_t functions = std::uint64_t{1} << (1u << nv);
    for (std::uint64_t a = 0; a < functions; ++a) {
      for (std::uint64_t b = 0; b < functions; ++b) {
        corpus.push_back({table(nv, a), table(nv, b)});
      }
    }
  }
  util::Rng rng(1803);
  for (int i = 0; i < 2000; ++i) {
    const auto outputs = 1 + static_cast<unsigned>(rng.below(4));
    corpus.push_back(random_spec(rng, kMaxJointVars, outputs));
  }
  corpus.push_back(random_spec(rng, kMaxJointVars, 32));
  return corpus;
}

// ---------- canonicalization ----------

TEST(Key, ApplyUnapplyIsTheIdentity) {
  util::Rng rng(123);
  for (unsigned vars = 1; vars <= kMaxJointVars; ++vars) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto spec =
          random_spec(rng, vars, 1 + static_cast<unsigned>(rng.below(4)));
      const CanonicalSpec canon = canonicalize(spec);
      EXPECT_EQ(cache::apply(spec, canon.transform), canon.tables);
      EXPECT_EQ(unapply(canon.tables, canon.transform), spec);
    }
  }
}

TEST(Key, NpnVariantsShareOneKey) {
  // x0&x1 under every input permutation/complement and output complement
  // must canonicalize to the same key.
  const auto key_of = [](const std::string& hex) {
    const std::vector<tt::TruthTable> spec = {tt::TruthTable::from_hex(2,
                                                                       hex)};
    return canonicalize(spec).key;
  };
  const std::string base = key_of("8"); // x0 & x1
  EXPECT_EQ(key_of("4"), base);         // x0 & ~x1
  EXPECT_EQ(key_of("2"), base);         // ~x0 & x1
  EXPECT_EQ(key_of("1"), base);         // ~x0 & ~x1
  EXPECT_EQ(key_of("7"), base);         // ~(x0 & x1)
  EXPECT_EQ(key_of("e"), base);         // x0 | x1 = ~(~x0 & ~x1)
  EXPECT_NE(key_of("6"), base);         // xor is a different class
}

TEST(Key, CanonicalSpecIsAFixpoint) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const auto spec = random_spec(
        rng, 1 + static_cast<unsigned>(rng.below(kMaxJointVars)),
        1 + static_cast<unsigned>(rng.below(3)));
    const CanonicalSpec canon = canonicalize(spec);
    const CanonicalSpec again = canonicalize(canon.tables);
    EXPECT_EQ(again.tables, canon.tables);
    EXPECT_EQ(again.key, canon.key);
    EXPECT_TRUE(again.transform.identity(
        static_cast<unsigned>(canon.tables[0].num_vars())));
  }
}

TEST(Key, WideSpecsGetTheIdentityTransform) {
  util::Rng rng(5);
  const auto spec = random_spec(rng, kMaxJointVars + 1, 2);
  const CanonicalSpec canon = canonicalize(spec);
  EXPECT_TRUE(canon.transform.identity(kMaxJointVars + 1));
  EXPECT_EQ(canon.tables, spec);
}

TEST(Key, CanonicalizeMatchesThePerBitSearch) {
  for (const auto& spec : canonicalize_corpus()) {
    const CanonicalSpec want = reference::canonicalize(spec);
    const CanonicalSpec got = canonicalize(spec);
    EXPECT_EQ(got.tables, want.tables) << want.key;
    EXPECT_EQ(got.transform, want.transform) << want.key;
    EXPECT_EQ(got.key, want.key);
  }
}

TEST(Key, CanonicalizeCorpusDigestIsPinned) {
  // CRC32 of "key perm input_phase output_phase" over the corpus, as
  // canonicalize produced it before the word engine: an edit that moves
  // the reference and the library together still fails here, and a drift
  // here would re-key every persisted store.
  std::string lines;
  for (const auto& spec : canonicalize_corpus()) {
    const CanonicalSpec c = canonicalize(spec);
    lines += c.key + ' ';
    for (const unsigned p : c.transform.perm) {
      lines += static_cast<char>('0' + p);
    }
    lines += ' ' + std::to_string(c.transform.input_phase) + ' ' +
             std::to_string(c.transform.output_phase) + '\n';
  }
  EXPECT_EQ(util::crc32(lines), 0x3659a78du);
}

TEST(Key, NetlistRewriteTracksTheTransform) {
  // canonicalize_netlist must implement the canonical tables, and
  // decanonicalize_netlist must take it back to the original spec.
  util::Rng rng(31337);
  fuzz::NetlistShape shape;
  shape.max_pis = kMaxJointVars;
  shape.max_gates = 10;
  for (int trial = 0; trial < 40; ++trial) {
    const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
    const auto spec = rqfp::simulate(net);
    const CanonicalSpec canon = canonicalize(spec);

    const rqfp::Netlist canon_net = canonicalize_netlist(net, canon.transform);
    EXPECT_TRUE(canon_net.validate().empty());
    EXPECT_EQ(rqfp::simulate(canon_net), canon.tables);

    const rqfp::Netlist back =
        decanonicalize_netlist(canon_net, canon.transform);
    EXPECT_TRUE(back.validate().empty());
    EXPECT_EQ(rqfp::simulate(back), spec);
  }
}

// ---------- store ----------

TEST(Store, MissThenInsertThenHit) {
  util::Rng rng(9);
  fuzz::NetlistShape shape;
  shape.max_pis = 3;
  const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(net);

  Store store;
  EXPECT_FALSE(store.lookup(spec).has_value());
  EXPECT_TRUE(store.insert(spec, net, "test"));
  const auto hit = store.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->origin, "test");
  EXPECT_EQ(rqfp::simulate(hit->netlist), spec);
}

TEST(Store, HitsAcrossTheWholeNpnOrbit) {
  // Store one function once; NPN variants of it (permuted inputs,
  // complemented inputs and outputs) must hit the same entry, and the
  // de-canonicalized netlist must implement each variant exactly.
  util::Rng rng(4);
  fuzz::NetlistShape shape;
  shape.min_pis = 3;
  shape.max_pis = 3;
  shape.min_pos = 2;
  const rqfp::Netlist impl = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(impl);
  Store store;
  ASSERT_TRUE(store.insert(spec, impl, "test"));

  SpecTransform tr;
  tr.perm = {2, 0, 1, 3, 4, 5};
  tr.input_phase = 0b101;
  tr.output_phase = 0b01;
  const auto variant = cache::apply(spec, tr);
  const auto hit = store.lookup(variant);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rqfp::simulate(hit->netlist), variant);
  EXPECT_EQ(store.size(), 1u); // one entry serves the whole orbit
}

TEST(Store, KeepsTheBetterNetlistOnReinsert) {
  util::Rng rng(21);
  fuzz::NetlistShape shape;
  shape.max_pis = 3;
  rqfp::Netlist small = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(small);

  // A strictly worse implementation of the same function: the same
  // netlist plus a disconnected pass-through of constants is not easy to
  // build legally, so re-insert the identical netlist — the store must
  // report "no change".
  Store store;
  EXPECT_TRUE(store.insert(spec, small, "first"));
  EXPECT_FALSE(store.insert(spec, small, "second"));
  const auto hit = store.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->origin, "first");
}

TEST(Store, RejectsNetlistThatDoesNotImplementTheSpec) {
  util::Rng rng(2);
  fuzz::NetlistShape shape;
  shape.max_pis = 3;
  const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
  auto spec = rqfp::simulate(net);
  spec[0] = ~spec[0];
  Store store;
  EXPECT_THROW(store.insert(spec, net, "bad"), std::invalid_argument);
}

TEST(Store, SaveLoadRoundTrips) {
  const std::string path = temp_path("roundtrip.rcc");
  util::Rng rng(55);
  fuzz::NetlistShape shape;
  shape.max_pis = 4;
  Store store(path);
  std::vector<std::vector<tt::TruthTable>> specs;
  for (int i = 0; i < 5; ++i) {
    const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
    specs.push_back(rqfp::simulate(net));
    store.insert(specs.back(), net, "test");
  }
  store.save();

  Store back(path);
  EXPECT_EQ(back.size(), store.size());
  for (const auto& spec : specs) {
    const auto hit = back.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(rqfp::simulate(hit->netlist), spec);
  }
  EXPECT_TRUE(back.verify().empty());
}

TEST(Store, ConcurrentSavesNeverPublishACorruptFile) {
  // Regression: serve workers persist after every insert, so save() runs
  // from many threads at once. Interleaved writes into the shared temp
  // file used to rename a corrupt store into place.
  const std::string path = temp_path("concurrent.rcc");
  util::Rng rng(77);
  fuzz::NetlistShape shape;
  shape.max_pis = 4;
  Store store(path);
  for (int i = 0; i < 8; ++i) {
    const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
    store.insert(rqfp::simulate(net), net, "test");
  }
  std::vector<std::thread> savers;
  for (int t = 0; t < 8; ++t) {
    savers.emplace_back([&store] {
      for (int i = 0; i < 25; ++i) {
        store.save();
      }
    });
  }
  for (auto& t : savers) {
    t.join();
  }
  // A torn save would fail the CRC check here (IntegrityError).
  Store back(path);
  EXPECT_EQ(back.size(), store.size());
  EXPECT_TRUE(back.verify().empty());
}

TEST(Store, ConcurrentLookupsAndInsertsStayConsistent) {
  // Serve workers share one store: 8 threads look up random NPN variants
  // of stored classes while one thread inserts new ones. Lookups of the
  // inserter's classes may hit or miss depending on timing; lookups of the
  // pre-stored ones must hit. TSan (CI) covers the shared state.
  util::Rng rng(1804);
  fuzz::NetlistShape shape;
  shape.min_pis = kMaxJointVars;
  shape.max_pis = kMaxJointVars;
  shape.max_pos = 3;
  shape.max_gates = 12;
  const auto draw = [&](int count) {
    std::vector<std::pair<rqfp::Netlist, std::vector<tt::TruthTable>>> out;
    for (int i = 0; i < count; ++i) {
      rqfp::Netlist net = fuzz::random_netlist(rng, shape);
      auto spec = rqfp::simulate(net);
      out.emplace_back(std::move(net), std::move(spec));
    }
    return out;
  };
  const auto stored = draw(16);
  const auto fresh = draw(24);
  Store store;
  for (const auto& [net, spec] : stored) {
    store.insert(spec, net, "stored");
  }

  auto& reg = obs::registry();
  const std::uint64_t lookups0 = reg.counter("cache.lookups").value();
  const std::uint64_t hits0 = reg.counter("cache.hits").value();
  const std::uint64_t misses0 = reg.counter("cache.misses").value();
  const std::uint64_t failures0 = reg.counter("cache.verify.failures").value();

  constexpr int kReaders = 8;
  constexpr int kLookups = 100;
  std::vector<int> wrong(kReaders, 0);
  std::vector<int> stored_misses(kReaders, 0);
  // Every thread waits at the gate so the inserts overlap the lookups.
  std::atomic<int> waiting{kReaders + 1};
  const auto gate = [&waiting] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) {
      std::this_thread::yield();
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    gate();
    for (const auto& [net, spec] : fresh) {
      store.insert(spec, net, "fresh");
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      gate();
      util::Rng local(1900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kLookups; ++i) {
        const bool old = local.chance(0.5);
        const auto& pool = old ? stored : fresh;
        const auto& spec = pool[local.below(pool.size())].second;
        const auto variant = cache::apply(
            spec, random_transform(local, kMaxJointVars, spec.size()));
        const auto hit = store.lookup(variant);
        if (!hit) {
          stored_misses[t] += old ? 1 : 0;
        } else if (rqfp::simulate(hit->netlist) != variant) {
          ++wrong[t];
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(wrong[t], 0) << "reader " << t;
    EXPECT_EQ(stored_misses[t], 0) << "reader " << t;
  }
  const std::uint64_t lookups =
      reg.counter("cache.lookups").value() - lookups0;
  EXPECT_EQ(lookups, std::uint64_t{kReaders} * kLookups);
  EXPECT_EQ(reg.counter("cache.hits").value() - hits0 +
                reg.counter("cache.misses").value() - misses0,
            lookups);
  EXPECT_EQ(reg.counter("cache.verify.failures").value(), failures0);
}

TEST(Store, VerifyFlagsEntriesNoLookupCanReach) {
  // x0 & x1 stored under its raw table 8 rather than its class key "2:1":
  // every lookup canonicalizes first, so this entry can never hit, and
  // verify must say so even though the netlist implements its tables.
  const std::vector<tt::TruthTable> and2 = {tt::TruthTable::from_hex(2, "8")};
  ASSERT_EQ(canonicalize(and2).key, "2:1");
  rqfp::Netlist net(2);
  // Every majority computes M(x0, x1, !1) = x0 & x1.
  const std::uint32_t g =
      net.add_gate({1, 2, rqfp::kConstPort}, rqfp::InvConfig::triple(4));
  net.add_po(net.port_of(g, 0), "f");
  CanonicalSpec raw;
  raw.tables = and2;
  raw.key = spec_key(and2);
  Store written;
  written.insert_canonical(raw, net, "hand");
  // A loaded store derives each key from its tables (Store::parse), as
  // for a file written by a drifted canonicalizer or edited by hand.
  const Store loaded = Store::parse(written.serialize(), "raw.rcc");
  const std::vector<std::string> problems = loaded.verify();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].rfind("2:8: ", 0), 0u) << problems[0];
}

TEST(Store, CorruptPayloadRaisesChecksumError) {
  const std::string path = temp_path("corrupt.rcc");
  util::Rng rng(8);
  Store store(path);
  const rqfp::Netlist net = fuzz::random_netlist(rng);
  store.insert(rqfp::simulate(net), net, "test");
  store.save();

  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  text[text.size() / 2] ^= 0x20; // damage the CRC-covered payload
  try {
    (void)Store::parse(text, "corrupt.rcc");
    FAIL() << "expected IntegrityError";
  } catch (const robust::IntegrityError& e) {
    EXPECT_EQ(e.kind(), robust::IntegrityError::Kind::kChecksum);
  }
}

TEST(Store, MangledHeaderRaisesFormatError) {
  try {
    (void)Store::parse("not-a-cache 1 0\n", "mangled");
    FAIL() << "expected IntegrityError";
  } catch (const robust::IntegrityError& e) {
    EXPECT_EQ(e.kind(), robust::IntegrityError::Kind::kFormat);
  }
}

TEST(Store, LookupCountsTelemetry) {
  auto& reg = obs::registry();
  const std::uint64_t hits0 = reg.counter("cache.hits").value();
  const std::uint64_t misses0 = reg.counter("cache.misses").value();

  util::Rng rng(91);
  fuzz::NetlistShape shape;
  shape.max_pis = 3;
  const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(net);
  Store store;
  (void)store.lookup(spec);
  store.insert(spec, net, "test");
  (void)store.lookup(spec);

  EXPECT_EQ(reg.counter("cache.misses").value(), misses0 + 1);
  EXPECT_EQ(reg.counter("cache.hits").value(), hits0 + 1);
}

TEST(Store, LookupDropsAnEntryThatFailsItsRecheck) {
  // A store whose one entry claims the AND class but holds the netlist
  // y = x0, with a valid CRC: what a hand edit or a drifted rewrite could
  // leave on disk. A lookup must re-check it by simulation, drop it and
  // miss, never serve it.
  const std::vector<tt::TruthTable> spec = {tt::TruthTable::from_hex(2, "8")};
  const CanonicalSpec canon = canonicalize(spec);
  const std::string body = "entries 1\nentry 2 1 cgp\ntables " +
                           canon.tables[0].to_hex() +
                           "\n.rqfp 1\n.pis 2\n.pos 1\npo 1 y0\n.end\n"
                           "end-entry\nend-cache\n";
  char header[64];
  std::snprintf(header, sizeof(header), "rcgp-cache 1 %08x\n",
                util::crc32(body));
  Store store = Store::parse(header + body, "poisoned");
  ASSERT_EQ(store.size(), 1u);
  ASSERT_FALSE(store.verify().empty());

  auto& reg = obs::registry();
  const std::uint64_t failures0 = reg.counter("cache.verify.failures").value();
  const std::uint64_t misses0 = reg.counter("cache.misses").value();
  EXPECT_FALSE(store.lookup(spec).has_value());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(reg.counter("cache.verify.failures").value(), failures0 + 1);
  EXPECT_EQ(reg.counter("cache.misses").value(), misses0 + 1);
}

// ---------- warmer ----------

TEST(Warm, FillsEveryTwoInputClass) {
  Store store;
  WarmOptions opt;
  opt.max_vars = 2;
  opt.exact.max_gates = 4;
  opt.exact.time_limit_seconds = 30;
  const WarmResult r = warm(store, opt);
  // 2 classes of 1 input (const, identity) + 4 proper 2-input classes.
  EXPECT_EQ(r.classes, 6u);
  EXPECT_EQ(r.solved + r.timeouts + r.skipped, r.classes);
  EXPECT_EQ(store.size(), r.solved);

  // Every 2-input function must now hit (given all classes solved).
  if (r.timeouts == 0) {
    for (unsigned v = 0; v < 16; ++v) {
      tt::TruthTable t(2);
      t.set_word(0, v);
      const std::vector<tt::TruthTable> spec = {t};
      const auto hit = store.lookup(spec);
      ASSERT_TRUE(hit.has_value()) << "function " << v;
      EXPECT_EQ(rqfp::simulate(hit->netlist), spec) << "function " << v;
    }
  }
}

TEST(Warm, SkipsExistingEntriesOnRerun) {
  Store store;
  WarmOptions opt;
  opt.max_vars = 1;
  opt.exact.max_gates = 3;
  const WarmResult first = warm(store, opt);
  EXPECT_EQ(first.classes, 2u);
  const WarmResult second = warm(store, opt);
  EXPECT_EQ(second.skipped, first.solved);
  EXPECT_EQ(second.solved, 0u);
}

TEST(Warm, RejectsOutOfRangeMaxVars) {
  Store store;
  WarmOptions opt;
  opt.max_vars = kMaxJointVars + 1;
  EXPECT_THROW(warm(store, opt), std::invalid_argument);
  opt.max_vars = 0;
  EXPECT_THROW(warm(store, opt), std::invalid_argument);
}

} // namespace
} // namespace rcgp::cache
