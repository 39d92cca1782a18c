#include "robust/integrity.hpp"

#include <stdexcept>

#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "rqfp/simulate.hpp"

namespace rcgp::robust {

std::string to_string(ParanoiaLevel level) {
  switch (level) {
    case ParanoiaLevel::kOff: return "off";
    case ParanoiaLevel::kBoundaries: return "boundaries";
    case ParanoiaLevel::kEveryAcceptance: return "every-acceptance";
  }
  return "unknown";
}

ParanoiaLevel parse_paranoia(const std::string& text) {
  if (text == "off") {
    return ParanoiaLevel::kOff;
  }
  if (text == "boundaries") {
    return ParanoiaLevel::kBoundaries;
  }
  if (text == "all" || text == "every-acceptance") {
    return ParanoiaLevel::kEveryAcceptance;
  }
  throw std::invalid_argument(
      "paranoia level must be off, boundaries, or all (got '" + text + "')");
}

const char* IntegrityError::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kInvariant: return "invariant";
    case Kind::kFunctional: return "functional";
    case Kind::kChecksum: return "checksum";
    case Kind::kFormat: return "format";
  }
  return "unknown";
}

IntegrityError::IntegrityError(Kind kind, std::string where,
                               std::string detail, std::string netlist_dump)
    : std::runtime_error("integrity violation [" +
                         std::string(kind_name(kind)) + "] at " + where +
                         ": " + detail),
      kind_(kind),
      where_(std::move(where)),
      detail_(std::move(detail)),
      netlist_dump_(std::move(netlist_dump)) {}

void enforce_integrity(const rqfp::Netlist& net,
                       std::span<const tt::TruthTable> spec,
                       std::string_view where) {
  static obs::Counter& c_checks =
      obs::registry().counter("robust.integrity_checks");
  static obs::Counter& c_failures =
      obs::registry().counter("robust.integrity_failures");
  c_checks.inc();

  const std::string problem = net.validate();
  if (!problem.empty()) {
    c_failures.inc();
    throw IntegrityError(IntegrityError::Kind::kInvariant, std::string(where),
                         problem, io::write_rqfp_string(net));
  }
  if (!spec.empty()) {
    if (spec.size() != net.num_pos()) {
      c_failures.inc();
      throw IntegrityError(
          IntegrityError::Kind::kFunctional, std::string(where),
          "specification has " + std::to_string(spec.size()) +
              " outputs but netlist has " + std::to_string(net.num_pos()),
          io::write_rqfp_string(net));
    }
    // Exhaustive re-simulation from scratch on a reused row buffer,
    // independent of the evaluator's delta path, so it catches bugs there.
    thread_local rqfp::SimCache sim;
    rqfp::build_sim_cache(net, sim);
    for (std::size_t o = 0; o < spec.size(); ++o) {
      if (sim.table(net.po_at(o)) != spec[o]) {
        c_failures.inc();
        throw IntegrityError(
            IntegrityError::Kind::kFunctional, std::string(where),
            "output " + std::to_string(o) +
                " mismatches the specification under exhaustive "
                "re-simulation",
            io::write_rqfp_string(net));
      }
    }
  }
}

} // namespace rcgp::robust
