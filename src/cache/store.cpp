#include "cache/store.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "robust/integrity.hpp"
#include "rqfp/simulate.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::cache {

namespace {

constexpr const char* kMagic = "rcgp-cache";
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void format_error(const std::string& detail) {
  throw robust::IntegrityError(robust::IntegrityError::Kind::kFormat, "cache",
                               detail);
}

/// Lexicographic (n_r, jjs, n_d, n_g) — the keep-best order, matching the
/// paper's primary objective with JJs as the tie-breaker.
bool better(const rqfp::Cost& a, const rqfp::Cost& b) {
  return std::tie(a.n_r, a.jjs, a.n_d, a.n_g) <
         std::tie(b.n_r, b.jjs, b.n_d, b.n_g);
}

std::string sanitize_origin(const std::string& origin) {
  std::string out = origin.empty() ? std::string("unknown") : origin;
  for (char& c : out) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '.' && c != '_' && c != '-') {
      c = '-';
    }
  }
  return out;
}

bool implements(const rqfp::Netlist& net,
                std::span<const tt::TruthTable> tables) {
  if (tables.empty() || net.num_pis() != tables[0].num_vars() ||
      net.num_pos() != tables.size()) {
    return false;
  }
  if (!net.validate().empty()) {
    return false;
  }
  // One reused row buffer per thread rather than rqfp::simulate's heap
  // table per port: every hit runs this re-check.
  thread_local rqfp::SimCache sim;
  rqfp::build_sim_cache(net, sim);
  for (std::size_t o = 0; o < tables.size(); ++o) {
    if (sim.table(net.po_at(o)) != tables[o]) {
      return false;
    }
  }
  return true;
}

} // namespace

Store::Store(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return; // fresh store; save() creates the file
  }
  std::ostringstream text;
  text << in.rdbuf();
  Store loaded = parse(text.str(), path_);
  entries_ = std::move(loaded.entries_);
  obs::registry().gauge("cache.entries").set(static_cast<double>(
      entries_.size()));
}

Store::Store(Store&& other) noexcept
    : path_(std::move(other.path_)), entries_(std::move(other.entries_)) {}

Store& Store::operator=(Store&& other) noexcept {
  if (this != &other) {
    path_ = std::move(other.path_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

std::size_t Store::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool Store::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(key) != entries_.end();
}

std::optional<Hit> Store::lookup(std::span<const tt::TruthTable> spec) {
  // Resolved once: a registry lookup by name takes a mutex and searches
  // a map, and a hit takes microseconds.
  static constexpr double kHitBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                          1e-2, 1e-1, 1.0};
  static obs::Counter& lookups = obs::registry().counter("cache.lookups");
  static obs::Counter& hits = obs::registry().counter("cache.hits");
  static obs::Counter& misses = obs::registry().counter("cache.misses");
  static obs::Histogram& hit_seconds =
      obs::registry().histogram("cache.hit.seconds", kHitBounds);
  obs::Span span("cache.lookup");
  util::Stopwatch watch;
  lookups.inc();
  const CanonicalSpec canon = canonicalize(spec);
  Hit hit;
  {
    // De-canonicalize straight from the stored entry: the hit returns a
    // rewritten netlist, so a copy of the entry would be thrown away.
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(canon.key);
    if (it == entries_.end()) {
      misses.inc();
      return std::nullopt;
    }
    hit.netlist = decanonicalize_netlist(it->second.netlist, canon.transform);
    hit.origin = it->second.origin;
  }
  if (!implements(hit.netlist, spec)) {
    // Poisoned or stale entry: drop it and report a miss rather than
    // serving a wrong circuit.
    auto& reg = obs::registry();
    reg.counter("cache.verify.failures").inc();
    misses.inc();
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(canon.key);
    reg.gauge("cache.entries").set(static_cast<double>(entries_.size()));
    return std::nullopt;
  }
  // Not the stored cost: de-canonicalization may add an inverter gate.
  hit.cost = rqfp::cost_of(hit.netlist);
  hit.key = canon.key;
  hits.inc();
  hit_seconds.observe(watch.seconds());
  return hit;
}

bool Store::insert(std::span<const tt::TruthTable> spec,
                   const rqfp::Netlist& net, const std::string& origin) {
  const CanonicalSpec canon = canonicalize(spec);
  if (!implements(net, spec)) {
    throw std::invalid_argument(
        "cache: inserted netlist does not implement the specification");
  }
  Entry entry;
  entry.tables = canon.tables;
  entry.netlist = canonicalize_netlist(net, canon.transform);
  entry.cost = rqfp::cost_of(entry.netlist);
  entry.origin = sanitize_origin(origin);
  return insert_locked(canon.key, std::move(entry));
}

bool Store::insert_canonical(const CanonicalSpec& canon,
                             const rqfp::Netlist& net,
                             const std::string& origin) {
  if (!implements(net, canon.tables)) {
    throw std::invalid_argument(
        "cache: inserted netlist does not implement the canonical tables");
  }
  Entry entry;
  entry.tables = canon.tables;
  entry.netlist = net;
  entry.cost = rqfp::cost_of(entry.netlist);
  entry.origin = sanitize_origin(origin);
  return insert_locked(canon.key, std::move(entry));
}

bool Store::insert_locked(const std::string& key, Entry entry) {
  auto& reg = obs::registry();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(key, std::move(entry));
    reg.counter("cache.inserts").inc();
    reg.gauge("cache.entries").set(static_cast<double>(entries_.size()));
    return true;
  }
  if (better(entry.cost, it->second.cost)) {
    it->second = std::move(entry);
    reg.counter("cache.updates").inc();
    return true;
  }
  reg.counter("cache.insert.kept").inc();
  return false;
}

std::vector<std::string> Store::verify() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> problems;
  for (const auto& [key, entry] : entries_) {
    const std::string bad = entry.netlist.validate();
    if (!bad.empty()) {
      problems.push_back(key + ": invalid netlist: " + bad);
      continue;
    }
    if (!implements(entry.netlist, entry.tables)) {
      problems.push_back(key + ": netlist does not implement stored tables");
      continue;
    }
    if (spec_key(entry.tables) != key) {
      problems.push_back(key + ": key does not match stored tables");
      continue;
    }
    // Lookups canonicalize first, so an entry whose tables are not their
    // class's canonical form (a drifted canonicalizer, a hand edit) can
    // never hit. Store::parse derives keys from tables, so only this
    // check sees it on a loaded store.
    const std::string class_key = canonicalize(entry.tables).key;
    if (class_key != key) {
      problems.push_back(key + ": tables are not canonical (class key " +
                         class_key + "), so no lookup reaches this entry");
    }
  }
  return problems;
}

std::vector<std::pair<std::string, Entry>> Store::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

std::string Store::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream payload;
  payload << "entries " << entries_.size() << '\n';
  for (const auto& [key, entry] : entries_) {
    payload << "entry " << entry.tables[0].num_vars() << ' '
            << entry.tables.size() << ' ' << entry.origin << '\n';
    payload << "tables";
    for (const auto& t : entry.tables) {
      payload << ' ' << t.to_hex();
    }
    payload << '\n';
    payload << io::write_rqfp_string(entry.netlist);
    payload << "end-entry\n";
  }
  payload << "end-cache\n";
  const std::string body = payload.str();
  char header[64];
  std::snprintf(header, sizeof(header), "%s %u %08x\n", kMagic, kVersion,
                util::crc32(body));
  return std::string(header) + body;
}

Store Store::parse(const std::string& text, const std::string& source) {
  const auto nl = text.find('\n');
  if (nl == std::string::npos) {
    format_error(source + ": missing header line");
  }
  std::istringstream header(text.substr(0, nl));
  std::string magic;
  std::uint32_t version = 0;
  std::string crc_hex;
  if (!(header >> magic >> version >> crc_hex) || magic != kMagic) {
    format_error(source + ": not an rcgp cache (bad magic)");
  }
  if (version != kVersion) {
    format_error(source + ": unsupported cache version " +
                 std::to_string(version));
  }
  const std::string body = text.substr(nl + 1);
  std::uint32_t expected = 0;
  try {
    expected = static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
  } catch (const std::exception&) {
    format_error(source + ": unreadable CRC field '" + crc_hex + "'");
  }
  const std::uint32_t actual = util::crc32(body);
  if (actual != expected) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "%s: CRC mismatch: header says %08x, payload hashes to %08x",
                  source.c_str(), expected, actual);
    throw robust::IntegrityError(robust::IntegrityError::Kind::kChecksum,
                                 "cache", msg);
  }

  Store store;
  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line)) {
    format_error(source + ": truncated payload");
  }
  std::istringstream count_line(line);
  std::string word;
  std::size_t count = 0;
  if (!(count_line >> word >> count) || word != "entries") {
    format_error(source + ": malformed entries line");
  }
  for (std::size_t e = 0; e < count; ++e) {
    if (!std::getline(in, line)) {
      format_error(source + ": truncated entry list");
    }
    std::istringstream entry_line(line);
    unsigned nv = 0;
    std::size_t no = 0;
    Entry entry;
    if (!(entry_line >> word >> nv >> no >> entry.origin) ||
        word != "entry") {
      format_error(source + ": malformed entry header");
    }
    if (nv > tt::TruthTable::kMaxVars || no == 0 || no > 32) {
      format_error(source + ": entry shape out of range");
    }
    if (!std::getline(in, line)) {
      format_error(source + ": truncated entry");
    }
    std::istringstream tables_line(line);
    if (!(tables_line >> word) || word != "tables") {
      format_error(source + ": malformed tables line");
    }
    std::string hex;
    while (tables_line >> hex) {
      try {
        entry.tables.push_back(tt::TruthTable::from_hex(nv, hex));
      } catch (const std::exception& ex) {
        format_error(source + ": bad table: " + ex.what());
      }
    }
    if (entry.tables.size() != no) {
      format_error(source + ": table count disagrees with entry header");
    }
    // The embedded netlist runs from ".rqfp" to ".end" inclusive.
    std::ostringstream net_text;
    bool ended = false;
    while (std::getline(in, line)) {
      net_text << line << '\n';
      if (line == ".end") {
        ended = true;
        break;
      }
    }
    if (!ended) {
      format_error(source + ": truncated netlist");
    }
    try {
      entry.netlist = io::parse_rqfp_string(net_text.str());
    } catch (const std::exception& ex) {
      format_error(source + ": bad netlist: " + ex.what());
    }
    if (entry.netlist.num_pis() != nv ||
        entry.netlist.num_pos() != entry.tables.size()) {
      format_error(source + ": netlist shape disagrees with entry header");
    }
    if (!std::getline(in, line) || line != "end-entry") {
      format_error(source + ": missing end-entry");
    }
    entry.cost = rqfp::cost_of(entry.netlist);
    const std::string key = spec_key(entry.tables);
    if (!store.entries_.emplace(key, std::move(entry)).second) {
      format_error(source + ": duplicate entry " + key);
    }
  }
  if (!std::getline(in, line) || line != "end-cache") {
    format_error(source + ": missing end-cache");
  }
  if (std::getline(in, line)) {
    format_error(source + ": trailing content after end-cache");
  }
  return store;
}

void Store::save() const {
  if (path_.empty()) {
    return;
  }
  // Snapshot and publish under one lock: every serve worker calls save()
  // after an insert, and without ordering an older snapshot could be
  // renamed over a newer one, dropping an insert from the file.
  const std::lock_guard<std::mutex> save_lock(save_mu_);
  util::write_file_durable(path_, serialize());
  obs::registry().counter("cache.saves").inc();
}

} // namespace rcgp::cache
