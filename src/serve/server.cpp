#include "serve/server.hpp"

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "core/request.hpp"
#include "io/parse_error.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::serve {

namespace {

// Cache hits of tens of microseconds through minute-scale evolution
// runs. Below 100 us a single bucket would put every hit's p50 at 50 us.
constexpr double kRequestSecondsBounds[] = {1e-5, 3e-5, 1e-4, 1e-3, 1e-2,
                                            0.1,  1.0,  10.0, 100.0};

bool blank(const std::string& line) {
  for (const char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

} // namespace

/// Counting synthesis slots shared by every connection; headerless so the
/// header stays free of <condition_variable>.
struct ServerSlots {
  explicit ServerSlots(unsigned n) : free(n) {}
  void acquire() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return free > 0; });
    --free;
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ++free;
    }
    cv.notify_one();
  }
  std::mutex mu;
  std::condition_variable cv;
  unsigned free;
};

Server::Server(ServeOptions options) : options_(std::move(options)) {
  if (options_.workers == 0) {
    options_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  slots_ = std::make_unique<ServerSlots>(options_.workers);
  if (!options_.executor) {
    options_.executor = [this](const batch::Job& job,
                               const batch::JobContext& ctx) {
      return batch::execute_request(job, ctx, options_.execute);
    };
  }
}

Server::~Server() { stop(); }

bool Server::stopping() const {
  return internal_stop_.stop_requested() ||
         (options_.stop != nullptr && options_.stop->stop_requested());
}

void Server::start() {
  if (running_) {
    return;
  }
  transport_ = options_.listen.empty()
                   ? Transport::unix_socket(options_.socket_path)
                   : Transport::for_address(options_.listen);
  listener_ = transport_->listen();
  // The kernel-resolved endpoint (an ephemeral TCP port 0 becomes the
  // real one); Unix sockets just report their path.
  bound_address_ =
      options_.listen.empty() ? options_.socket_path
                              : local_address(listener_.get());
  running_ = true;
  obs::registry().gauge("serve.up").set(1.0);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Server::run() {
  start();
  while (!stopping()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  stop();
}

void Server::stop() {
  if (!running_) {
    return;
  }
  internal_stop_.request_stop();
  // Ends the acceptor's wait on the listener at once instead of after its
  // poll timeout.
  ::shutdown(listener_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  listener_.close();
  std::vector<Connection> conns;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
    finished_.clear();
    for (const int fd : open_fds_) {
      ::shutdown(fd, SHUT_RDWR); // unblocks connection reads
    }
  }
  for (auto& c : conns) {
    if (c.thread.joinable()) {
      c.thread.join();
    }
  }
  if (transport_ != nullptr) {
    transport_->cleanup(); // unlinks the socket file; no-op for TCP
  }
  obs::registry().gauge("serve.up").set(0.0);
  running_ = false;
}

void Server::accept_loop() {
  obs::set_thread_name("serve-accept");
  std::uint64_t next_id = 0;
  while (!stopping()) {
    reap_finished();
    if (!wait_readable(listener_.get(), 200)) {
      continue;
    }
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    obs::registry().counter("serve.connections").inc();
    const std::uint64_t id = next_id++;
    const std::lock_guard<std::mutex> lock(mu_);
    open_fds_.push_back(fd);
    connections_.push_back(
        {id, std::thread([this, fd, id] { connection(fd, id); })});
  }
}

/// Joins connection threads that announced completion, so a long-running
/// daemon serving many short-lived connections does not accumulate
/// finished thread handles until stop().
void Server::reap_finished() {
  std::vector<std::thread> done;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint64_t id : finished_) {
      for (auto it = connections_.begin(); it != connections_.end(); ++it) {
        if (it->id == id) {
          done.push_back(std::move(it->thread));
          connections_.erase(it);
          break;
        }
      }
    }
    finished_.clear();
  }
  for (auto& t : done) {
    if (t.joinable()) {
      t.join(); // marks done as its last act, so this returns promptly
    }
  }
}

void Server::connection(int raw_fd, std::uint64_t id) {
  Fd fd(raw_fd);
  obs::set_thread_name("serve-conn-" + std::to_string(id));
  // Resolved once: a registry lookup by name takes a mutex and searches a
  // map, and a cache hit is over in tens of microseconds.
  auto& reg = obs::registry();
  obs::Histogram& seconds_hist =
      reg.histogram("serve.request.seconds", kRequestSecondsBounds);
  obs::Counter& requests = reg.counter("serve.requests");
  obs::Counter& errors = reg.counter("serve.errors");
  obs::Counter& responses_ok = reg.counter("serve.responses.ok");
  obs::Gauge& active = reg.gauge("serve.active");
  reg.gauge("serve.connections.active").add(1.0);
  ServerSlots& slots = *slots_;

  LineReader reader(fd.get());
  std::string line;
  std::size_t lineno = 0;
  while (!stopping() && reader.next(line)) {
    ++lineno;
    if (blank(line)) {
      continue;
    }
    requests.inc();
    util::Stopwatch watch;
    core::SynthesisResponse resp;
    batch::Job job;
    bool parsed = false;
    try {
      job = core::parse_request(line, "socket", lineno, "serve");
      parsed = true;
    } catch (const std::exception& e) {
      resp.ok = false;
      resp.stop_reason = "error";
      resp.error = e.what();
      errors.inc();
    }
    if (parsed) {
      // Acquires the slot and bumps the gauge in its constructor so there
      // is no window where a throw leaks a slot or skews the gauge.
      struct SlotGuard {
        SlotGuard(ServerSlots& slots, obs::Gauge& gauge)
            : s(slots), active(gauge) {
          s.acquire();
          active.add(1.0);
        }
        ~SlotGuard() {
          active.add(-1.0);
          s.release();
        }
        ServerSlots& s;
        obs::Gauge& active;
      };
      try {
        const SlotGuard guard(slots, active);
        batch::JobContext ctx;
        ctx.worker = static_cast<unsigned>(id);
        ctx.stop = &internal_stop_;
        if (!options_.checkpoint_dir.empty() &&
            job.algorithm == core::Algorithm::kEvolve) {
          // Shared-checkpoint contract (docs/ISLANDS.md): the job's state
          // lives at <dir>/<id>.ckpt and an existing file means "continue
          // it" — an island coordinator pointing its state_dir here makes
          // every daemon slice a bit-identical resume.
          ctx.checkpoint_path =
              options_.checkpoint_dir + "/" + job.id + ".ckpt";
          ctx.fleet_dir = batch::fleet_state_dir(ctx.checkpoint_path);
          ctx.resume_from_checkpoint =
              batch::saved_state_exists(ctx.checkpoint_path);
        }
        const batch::JobExecution exec = options_.executor(job, ctx);
        resp = batch::response_for(job.id, exec, watch.seconds());
      } catch (const std::exception& e) {
        resp = core::SynthesisResponse{};
        resp.id = job.id;
        resp.ok = false;
        resp.stop_reason = "error";
        resp.error = e.what();
        errors.inc();
      }
    }
    resp.seconds = watch.seconds();
    if (resp.ok) {
      responses_ok.inc();
    }
    seconds_hist.observe(resp.seconds);
    if (options_.trace != nullptr) {
      options_.trace->event("serve_request")
          .field("id", resp.id)
          .field("connection", id)
          .field("ok", resp.ok)
          .field("cached", resp.cached)
          .field("seeded", resp.seeded)
          .field("seconds", resp.seconds);
    }
    if (!write_line(fd.get(), core::to_json(resp))) {
      break;
    }
  }
  reg.gauge("serve.connections.active").add(-1.0);
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = open_fds_.begin(); it != open_fds_.end(); ++it) {
    if (*it == raw_fd) {
      open_fds_.erase(it);
      break;
    }
  }
  finished_.push_back(id); // accept_loop joins us on its next pass
}

} // namespace rcgp::serve
