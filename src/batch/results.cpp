#include "batch/results.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace rcgp::batch {

std::string to_json(const JobRecord& record) {
  obs::json::Writer w;
  w.begin_object();
  w.field("id", record.id);
  w.field("ok", record.ok);
  w.field("final", record.final_record);
  w.field("stop_reason", record.stop_reason);
  if (!record.error.empty()) {
    w.field("error", record.error);
  }
  w.field("verified", record.verified);
  if (record.cached) {
    w.field("cached", true);
  }
  if (record.seeded) {
    w.field("seeded", true);
  }
  w.key("cost").begin_object();
  w.field("n_r", record.n_r);
  w.field("n_b", record.n_b);
  w.field("jjs", record.jjs);
  w.field("n_d", record.n_d);
  w.field("n_g", record.n_g);
  w.end_object();
  if (!record.netlist_path.empty()) {
    w.field("netlist", record.netlist_path);
  }
  w.field("attempts", record.attempts);
  w.field("worker", record.worker);
  w.field("seconds", record.seconds);
  w.end_object();
  return w.str();
}

std::optional<JobRecord> parse_record(const std::string& line) {
  if (!obs::json::validate(line)) {
    return std::nullopt;
  }
  const auto id = obs::json::string_field(line, "id");
  const auto reason = obs::json::string_field(line, "stop_reason");
  if (!id || !reason) {
    return std::nullopt;
  }
  JobRecord r;
  r.id = *id;
  r.stop_reason = *reason;
  // validate() guarantees well-formed JSON, so the boolean literals can be
  // found with a flat scan like the numeric fields.
  r.ok = line.find("\"ok\":true") != std::string::npos;
  r.final_record = line.find("\"final\":true") != std::string::npos;
  r.verified = line.find("\"verified\":true") != std::string::npos;
  r.cached = line.find("\"cached\":true") != std::string::npos;
  r.seeded = line.find("\"seeded\":true") != std::string::npos;
  if (const auto e = obs::json::string_field(line, "error")) {
    r.error = *e;
  }
  if (const auto p = obs::json::string_field(line, "netlist")) {
    r.netlist_path = *p;
  }
  const auto u32 = [&](const char* key) -> std::uint32_t {
    const auto v = obs::json::number_field(line, key);
    return v ? static_cast<std::uint32_t>(*v) : 0;
  };
  r.n_r = u32("n_r");
  r.n_b = u32("n_b");
  r.n_d = u32("n_d");
  r.n_g = u32("n_g");
  if (const auto v = obs::json::number_field(line, "jjs")) {
    r.jjs = static_cast<std::uint64_t>(*v);
  }
  r.attempts = u32("attempts");
  r.worker = u32("worker");
  if (const auto v = obs::json::number_field(line, "seconds")) {
    r.seconds = *v;
  }
  return r;
}

ResultsStore::ResultsStore(const std::string& path)
    : path_(path), out_(path, std::ios::app) {
  if (!out_) {
    throw std::runtime_error("batch: cannot open results store " + path);
  }
  // A kill mid-append leaves an unterminated fragment. End its line so the
  // next record starts a line of its own (load() skips the fragment).
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (in.tellg() > 0 && in.seekg(-1, std::ios::end) && in.get() != '\n') {
    out_ << '\n' << std::flush;
  }
}

std::vector<JobRecord> ResultsStore::load(const std::string& path) {
  std::vector<JobRecord> records;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (auto r = parse_record(line)) {
      records.push_back(std::move(*r));
    }
  }
  return records;
}

void ResultsStore::append(const JobRecord& record) {
  const std::string line = to_json(record);
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();
}

} // namespace rcgp::batch
