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
  const std::optional<obs::json::Value> doc = obs::json::parse(line);
  const obs::json::Value* id = doc ? doc->find("id") : nullptr;
  const obs::json::Value* reason = doc ? doc->find("stop_reason") : nullptr;
  if (!id || !id->is_string() || !reason || !reason->is_string()) {
    return std::nullopt;
  }
  JobRecord r;
  r.id = id->as_string();
  r.stop_reason = reason->as_string();
  r.ok = doc->bool_or("ok", false);
  r.final_record = doc->bool_or("final", false);
  r.verified = doc->bool_or("verified", false);
  r.cached = doc->bool_or("cached", false);
  r.seeded = doc->bool_or("seeded", false);
  r.error = doc->string_or("error", "");
  r.netlist_path = doc->string_or("netlist", "");
  r.seconds = doc->number_or("seconds", 0.0);
  // Counts are exact integers that fit their fields; a record that breaks
  // this is malformed, like a torn one.
  try {
    using obs::json::integer_or;
    if (const obs::json::Value* cost = doc->find("cost")) {
      r.n_r = integer_or(*cost, "n_r", r.n_r);
      r.n_b = integer_or(*cost, "n_b", r.n_b);
      r.jjs = integer_or(*cost, "jjs", r.jjs);
      r.n_d = integer_or(*cost, "n_d", r.n_d);
      r.n_g = integer_or(*cost, "n_g", r.n_g);
    }
    r.attempts = integer_or(*doc, "attempts", r.attempts);
    r.worker = integer_or(*doc, "worker", r.worker);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
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
