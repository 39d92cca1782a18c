#include "io/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "aig/aig_simulate.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/parse_error.hpp"
#include "io/pla.hpp"
#include "io/real.hpp"
#include "io/rqfp_writer.hpp"
#include "io/verilog.hpp"
#include "rqfp/simulate.hpp"

namespace rcgp::io {

namespace {

std::string extension_of(const std::string& path) {
  const auto slash = path.find_last_of("/\\");
  const auto dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return "";
  }
  return path.substr(dot);
}

/// Bounded sniff window: binary garbage must not make detection read (or
/// allocate) the whole file looking for a newline.
constexpr std::size_t kSniffBytes = 4096;

/// First whitespace-trimmed, non-empty, non-comment line within the first
/// kSniffBytes of the file (empty when that window has none). Throws a
/// contextual ParseError for unopenable and empty files.
std::string first_content_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail_parse("auto", path, 0, "cannot open file");
  }
  std::string window(kSniffBytes, '\0');
  in.read(window.data(), static_cast<std::streamsize>(window.size()));
  window.resize(static_cast<std::size_t>(in.gcount()));
  if (window.empty()) {
    fail_parse("auto", path, 0, "file is empty");
  }
  std::size_t pos = 0;
  for (int i = 0; i < 64 && pos < window.size(); ++i) {
    std::size_t nl = window.find('\n', pos);
    if (nl == std::string::npos) {
      nl = window.size(); // last (possibly truncated) line of the window
    }
    std::string line = window.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t b = line.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) {
      continue;
    }
    if (line[b] == '#' || (line[b] == '/' && b + 1 < line.size() &&
                           line[b + 1] == '/')) {
      continue; // comment line (BLIF/PLA/.real '#', Verilog '//')
    }
    const std::size_t e = line.find_last_not_of(" \t\r\n");
    return line.substr(b, e - b + 1);
  }
  return "";
}

/// Escapes non-printable bytes (\xNN) so a binary-garbage snippet stays a
/// one-line, terminal-safe error message.
std::string printable_snippet(const std::string& s, std::size_t max_len) {
  std::string out;
  out.reserve(max_len + 8);
  for (std::size_t i = 0; i < s.size() && out.size() < max_len; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c < 0x7F && c != '"' && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      static const char* hex = "0123456789abcdef";
      out += "\\x";
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xF]);
    }
  }
  if (out.size() >= max_len) {
    out += "...";
  }
  return out;
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

} // namespace

std::string_view to_string(Format format) {
  switch (format) {
    case Format::kAuto: return "auto";
    case Format::kVerilog: return "verilog";
    case Format::kBlif: return "blif";
    case Format::kAiger: return "aiger";
    case Format::kPla: return "pla";
    case Format::kReal: return "real";
    case Format::kRqfp: return "rqfp";
    case Format::kDot: return "dot";
  }
  return "unknown";
}

Format format_from_extension(const std::string& path) {
  const std::string ext = extension_of(path);
  if (ext == ".v") return Format::kVerilog;
  if (ext == ".blif") return Format::kBlif;
  if (ext == ".aag" || ext == ".aig") return Format::kAiger;
  if (ext == ".pla") return Format::kPla;
  if (ext == ".real") return Format::kReal;
  if (ext == ".rqfp") return Format::kRqfp;
  if (ext == ".dot") return Format::kDot;
  return Format::kAuto;
}

Format detect_format(const std::string& path) {
  const Format by_ext = format_from_extension(path);
  if (by_ext != Format::kAuto) {
    return by_ext;
  }
  // Unknown extension: sniff the leading content. Each supported format
  // opens with an unmistakable token.
  const std::string head = first_content_line(path);
  if (starts_with(head, "aag ") || starts_with(head, "aig ")) {
    return Format::kAiger;
  }
  if (starts_with(head, ".rqfp")) {
    return Format::kRqfp;
  }
  if (starts_with(head, ".model")) {
    return Format::kBlif;
  }
  if (starts_with(head, "module")) {
    return Format::kVerilog;
  }
  if (starts_with(head, ".i ") || starts_with(head, ".i\t")) {
    return Format::kPla;
  }
  if (starts_with(head, ".version") || starts_with(head, ".numvars")) {
    return Format::kReal;
  }
  fail_parse("auto", path, 0,
             "cannot detect format from extension or content (leading "
             "line: \"" +
                 printable_snippet(head, 40) + "\")");
}

unsigned Network::num_pis() const {
  if (aig) return aig->num_pis();
  if (rqfp) return rqfp->num_pis();
  return tables.empty() ? 0 : tables.front().num_vars();
}

unsigned Network::num_pos() const {
  if (aig) return aig->num_pos();
  if (rqfp) return rqfp->num_pos();
  return static_cast<unsigned>(tables.size());
}

std::vector<tt::TruthTable> Network::to_tables() const {
  if (aig) {
    return aig::simulate(*aig);
  }
  if (rqfp) {
    return rqfp::simulate(*rqfp);
  }
  return tables;
}

Network read_network(const std::string& path, Format format) {
  Network net;
  net.source = path;
  net.format = format == Format::kAuto ? detect_format(path) : format;
  // Backstop contract: whatever a parser (or a constructor it feeds, e.g.
  // Netlist::add_gate or RealCircuit::to_tables) throws at malformed
  // input, read_network surfaces it as a contextual ParseError — callers
  // need exactly one exception type to distinguish "bad input file" from
  // a programming error.
  try {
    switch (net.format) {
      case Format::kVerilog:
        net.aig = parse_verilog_file(path);
        break;
      case Format::kBlif:
        net.aig = parse_blif_file(path);
        break;
      case Format::kAiger:
        net.aig = parse_aiger_auto_file(path); // ASCII and binary
        break;
      case Format::kPla: {
        auto pla = parse_pla_file(path);
        net.po_names = std::move(pla.output_names);
        net.tables = std::move(pla.tables);
        break;
      }
      case Format::kReal:
        net.tables = parse_real_file(path).to_tables();
        break;
      case Format::kRqfp:
        net.rqfp = parse_rqfp_file(path);
        break;
      case Format::kAuto:
      case Format::kDot:
        fail_parse("auto", path, 0,
                   "format '" + std::string(to_string(net.format)) +
                       "' is not readable");
    }
  } catch (const ParseError&) {
    throw;
  } catch (const std::exception& e) {
    fail_parse(std::string(to_string(net.format)).c_str(), path, 0,
               e.what());
  }
  if (net.aig) {
    for (unsigned o = 0; o < net.aig->num_pos(); ++o) {
      net.po_names.push_back(net.aig->po_name(o));
    }
  }
  if (net.rqfp) {
    for (unsigned o = 0; o < net.rqfp->num_pos(); ++o) {
      net.po_names.push_back(net.rqfp->po_name(o));
    }
  }
  return net;
}

void write_network(const rqfp::Netlist& net, const std::string& path,
                   Format format) {
  const Format f = format == Format::kAuto ? format_from_extension(path)
                                           : format;
  switch (f) {
    case Format::kRqfp:
      write_rqfp_file(net, path);
      return;
    case Format::kVerilog: {
      std::ofstream out(path);
      if (!out) {
        throw std::runtime_error("io: cannot write " + path);
      }
      write_structural_verilog(net, out);
      return;
    }
    case Format::kDot: {
      std::ofstream out(path);
      if (!out) {
        throw std::runtime_error("io: cannot write " + path);
      }
      write_dot(net, out);
      return;
    }
    default:
      throw std::invalid_argument(
          "io: cannot write an RQFP netlist as '" +
          std::string(to_string(f)) + "' (" + path +
          "); supported: .rqfp, .v, .dot");
  }
}

void write_network(const aig::Aig& net, const std::string& path,
                   Format format) {
  const Format f = format == Format::kAuto ? format_from_extension(path)
                                           : format;
  if (f != Format::kVerilog && f != Format::kBlif && f != Format::kAiger) {
    throw std::invalid_argument(
        "io: cannot write an AIG as '" + std::string(to_string(f)) + "' (" +
        path + "); supported: .v, .blif, .aag, .aig");
  }
  const bool binary_aiger = extension_of(path) == ".aig";
  std::ofstream out(path, binary_aiger ? std::ios::binary : std::ios::out);
  if (!out) {
    throw std::runtime_error("io: cannot write " + path);
  }
  if (f == Format::kVerilog) {
    write_verilog(net, out);
  } else if (f == Format::kBlif) {
    write_blif(net, out);
  } else if (binary_aiger) {
    write_aiger_binary(net, out);
  } else {
    write_aiger(net, out);
  }
}

} // namespace rcgp::io
