#include "robust/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "robust/integrity.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"

namespace rcgp::robust {

namespace {

constexpr const char* kMagic = "rcgp-evolve-checkpoint";

[[noreturn]] void format_error(const std::string& detail) {
  throw IntegrityError(IntegrityError::Kind::kFormat, "checkpoint", detail);
}

void put_mix(std::ostream& out, const char* key,
             const core::MutationMix& m) {
  out << key << ' ' << m.mutations << ' ' << m.genes_changed << ' '
      << m.swaps << ' ' << m.direct_assigns << ' ' << m.config_flips << ' '
      << m.po_moves << ' ' << m.skipped_infeasible << '\n';
}

// Hexfloat-capable double reader: `operator>>` cannot parse the exact
// "0x1.xxxp+e" form the serializer emits (it stops at the 'x'), but
// strtod handles it per C99.
bool read_double(std::istream& ls, double& out) {
  std::string tok;
  if (!(ls >> tok)) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') {
    return false;
  }
  out = v;
  return true;
}

core::MutationMix get_mix(std::istringstream& ls) {
  core::MutationMix m;
  if (!(ls >> m.mutations >> m.genes_changed >> m.swaps >> m.direct_assigns >>
        m.config_flips >> m.po_moves >> m.skipped_infeasible)) {
    format_error("malformed mutation-mix line");
  }
  return m;
}

} // namespace

std::string serialize_checkpoint(const EvolveCheckpoint& ck) {
  std::ostringstream payload;
  payload << "seed " << ck.seed << '\n';
  payload << "lambda " << ck.lambda << '\n';
  payload << "mu " << std::hexfloat << ck.mu << std::defaultfloat << '\n';
  payload << "generations_total " << ck.generations_total << '\n';
  payload << "generation " << ck.generations_run << '\n';
  payload << "evaluations " << ck.evaluations << '\n';
  payload << "improvements " << ck.improvements << '\n';
  payload << "sat_confirmations " << ck.sat_confirmations << '\n';
  payload << "sat_cec_conflicts " << ck.sat_cec_conflicts << '\n';
  payload << "since_improvement " << ck.since_improvement << '\n';
  payload << "last_improvement_gen " << ck.last_improvement_gen << '\n';
  payload << "elapsed_seconds " << std::hexfloat << ck.seconds
          << std::defaultfloat << '\n';
  payload << "fitness " << std::hexfloat << ck.best_fitness.success_rate
          << std::defaultfloat << ' ' << ck.best_fitness.n_r << ' '
          << ck.best_fitness.n_g << ' ' << ck.best_fitness.n_b << '\n';
  put_mix(payload, "mix_attempted", ck.mutations_attempted);
  put_mix(payload, "mix_accepted", ck.mutations_accepted);
  payload << "netlist\n" << io::write_rqfp_string(ck.best);
  payload << "end-checkpoint\n";

  const std::string body = payload.str();
  char header[64];
  std::snprintf(header, sizeof(header), "%s %u %08x\n", kMagic,
                EvolveCheckpoint::kVersion, util::crc32(body));
  return std::string(header) + body;
}

EvolveCheckpoint parse_checkpoint(const std::string& text) {
  const auto nl = text.find('\n');
  if (nl == std::string::npos) {
    format_error("missing header line");
  }
  std::istringstream header(text.substr(0, nl));
  std::string magic;
  std::uint32_t version = 0;
  std::string crc_hex;
  if (!(header >> magic >> version >> crc_hex) || magic != kMagic) {
    format_error("not an rcgp checkpoint (bad magic)");
  }
  if (version != EvolveCheckpoint::kVersion) {
    format_error("unsupported checkpoint version " + std::to_string(version));
  }
  const std::string body = text.substr(nl + 1);
  std::uint32_t expected = 0;
  try {
    expected = static_cast<std::uint32_t>(std::stoul(crc_hex, nullptr, 16));
  } catch (const std::exception&) {
    format_error("unreadable CRC field '" + crc_hex + "'");
  }
  const std::uint32_t actual = util::crc32(body);
  if (actual != expected) {
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "CRC mismatch: header says %08x, payload hashes to %08x",
                  expected, actual);
    throw IntegrityError(IntegrityError::Kind::kChecksum, "checkpoint", msg);
  }

  EvolveCheckpoint ck;
  std::istringstream in(body);
  std::string line;
  std::string netlist_text;
  bool in_netlist = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (in_netlist) {
      if (line == "end-checkpoint") {
        saw_end = true;
        break;
      }
      netlist_text += line;
      netlist_text += '\n';
      continue;
    }
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    bool ok = true;
    if (key == "seed") {
      ok = static_cast<bool>(ls >> ck.seed);
    } else if (key == "lambda") {
      ok = static_cast<bool>(ls >> ck.lambda);
    } else if (key == "mu") {
      ok = read_double(ls, ck.mu);
    } else if (key == "generations_total") {
      ok = static_cast<bool>(ls >> ck.generations_total);
    } else if (key == "generation") {
      ok = static_cast<bool>(ls >> ck.generations_run);
    } else if (key == "evaluations") {
      ok = static_cast<bool>(ls >> ck.evaluations);
    } else if (key == "improvements") {
      ok = static_cast<bool>(ls >> ck.improvements);
    } else if (key == "sat_confirmations") {
      ok = static_cast<bool>(ls >> ck.sat_confirmations);
    } else if (key == "sat_cec_conflicts") {
      ok = static_cast<bool>(ls >> ck.sat_cec_conflicts);
    } else if (key == "since_improvement") {
      ok = static_cast<bool>(ls >> ck.since_improvement);
    } else if (key == "last_improvement_gen") {
      ok = static_cast<bool>(ls >> ck.last_improvement_gen);
    } else if (key == "elapsed_seconds") {
      ok = read_double(ls, ck.seconds);
    } else if (key == "fitness") {
      ok = read_double(ls, ck.best_fitness.success_rate) &&
           static_cast<bool>(ls >> ck.best_fitness.n_r >>
                             ck.best_fitness.n_g >> ck.best_fitness.n_b);
    } else if (key == "mix_attempted") {
      ck.mutations_attempted = get_mix(ls);
    } else if (key == "mix_accepted") {
      ck.mutations_accepted = get_mix(ls);
    } else if (key == "netlist") {
      in_netlist = true;
    } else {
      format_error("unknown checkpoint key '" + key + "'");
    }
    if (!ok) {
      format_error("malformed value for key '" + key + "'");
    }
  }
  if (!saw_end) {
    format_error("truncated checkpoint (missing end-checkpoint)");
  }
  try {
    ck.best = io::parse_rqfp_string(netlist_text);
  } catch (const std::exception& e) {
    format_error(std::string("embedded netlist unreadable: ") + e.what());
  }
  return ck;
}

void save_checkpoint(const EvolveCheckpoint& ck, const std::string& path) {
  static obs::Counter& c_saves =
      obs::registry().counter("robust.checkpoint_saves");
  util::write_file_durable(path, serialize_checkpoint(ck));
  c_saves.inc();
}

EvolveCheckpoint load_checkpoint(const std::string& path) {
  static obs::Counter& c_loads =
      obs::registry().counter("robust.checkpoint_loads");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  EvolveCheckpoint ck = parse_checkpoint(text);
  c_loads.inc();
  return ck;
}

} // namespace rcgp::robust
