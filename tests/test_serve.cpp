#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/execute.hpp"
#include "cache/store.hpp"
#include "core/request.hpp"
#include "io/rqfp_writer.hpp"
#include "rqfp/simulate.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::serve {
namespace {

std::string temp_socket(const std::string& name) {
  // Unix socket paths are length-limited (~108 bytes); /tmp is safe where
  // a deep build-tree path may not be.
  const auto dir = std::filesystem::temp_directory_path() / "rcgp_serve";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  return path.string();
}

core::SynthesisRequest small_request(const std::string& id) {
  core::SynthesisRequest r;
  r.id = id;
  r.spec = {tt::TruthTable::from_hex(2, "8")}; // x0 & x1
  r.generations = 2000;
  r.seed = 7;
  return r;
}

// ---------- protocol plumbing ----------

TEST(Protocol, ListenRejectsOverlongPaths) {
  EXPECT_THROW(listen_unix(std::string(200, 'x')), std::runtime_error);
  EXPECT_THROW(listen_unix(""), std::runtime_error);
}

TEST(Protocol, ConnectToNothingThrows) {
  EXPECT_THROW(connect_unix(temp_socket("nobody.sock")), std::runtime_error);
}

// ---------- request/response over the wire ----------

TEST(Server, AnswersARequestAndVerifies) {
  ServeOptions opt;
  opt.socket_path = temp_socket("basic.sock");
  opt.workers = 2;
  Server server(std::move(opt));
  server.start();

  Client client(server.socket_path());
  const core::SynthesisRequest req = small_request("and2");
  const core::SynthesisResponse resp = client.submit(req);
  EXPECT_EQ(resp.id, "and2");
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.verified);
  EXPECT_FALSE(resp.cached);
  const rqfp::Netlist net = io::parse_rqfp_string(resp.netlist);
  EXPECT_EQ(rqfp::simulate(net), req.spec);

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(server.socket_path()));
}

TEST(Server, SecondIdenticalRequestIsServedFromTheCache) {
  cache::Store store; // unbound: memory-only is fine for the protocol test
  ServeOptions opt;
  opt.socket_path = temp_socket("cached.sock");
  opt.execute.cache = &store;
  Server server(std::move(opt));
  server.start();

  Client client(server.socket_path());
  const core::SynthesisResponse cold = client.submit(small_request("c1"));
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cached);
  const core::SynthesisResponse warm = client.submit(small_request("c2"));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  EXPECT_TRUE(warm.verified);
  // De-canonicalized hits drop port names (names cannot survive the NPN
  // permutation), so compare functions — and require hit-vs-hit text to be
  // bit-identical.
  EXPECT_EQ(rqfp::simulate(io::parse_rqfp_string(warm.netlist)),
            rqfp::simulate(io::parse_rqfp_string(cold.netlist)));
  EXPECT_LT(warm.seconds, 0.1); // hits skip synthesis entirely

  const core::SynthesisResponse warm2 = client.submit(small_request("c3"));
  ASSERT_TRUE(warm2.ok);
  EXPECT_TRUE(warm2.cached);
  EXPECT_EQ(warm2.netlist, warm.netlist);

  server.stop();
}

TEST(Server, MalformedLineGetsAnErrorAndTheConnectionSurvives) {
  ServeOptions opt;
  opt.socket_path = temp_socket("survive.sock");
  // Stub executor: the test exercises framing, not synthesis.
  opt.executor = [](const batch::Job& job, const batch::JobContext&) {
    batch::JobExecution exec;
    exec.verified = true;
    (void)job;
    return exec;
  };
  Server server(std::move(opt));
  server.start();

  Client client(server.socket_path());
  const core::SynthesisResponse bad = client.submit_line("{\"nope\":");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("serve:"), std::string::npos) << bad.error;

  const core::SynthesisResponse good =
      client.submit_line(core::to_json(small_request("after-error")));
  EXPECT_EQ(good.id, "after-error");
  EXPECT_TRUE(good.ok);

  server.stop();
}

TEST(Server, ResponsesComeBackInRequestOrder) {
  ServeOptions opt;
  opt.socket_path = temp_socket("order.sock");
  opt.workers = 4;
  opt.executor = [](const batch::Job& job, const batch::JobContext&) {
    batch::JobExecution exec;
    exec.verified = true;
    (void)job;
    return exec;
  };
  Server server(std::move(opt));
  server.start();

  Client client(server.socket_path());
  for (int i = 0; i < 20; ++i) {
    const std::string id = "seq" + std::to_string(i);
    core::SynthesisRequest r;
    r.id = id;
    r.circuit = "c17";
    const core::SynthesisResponse resp = client.submit(r);
    EXPECT_EQ(resp.id, id);
  }
  server.stop();
}

TEST(Server, ServesConcurrentConnections) {
  ServeOptions opt;
  opt.socket_path = temp_socket("concurrent.sock");
  opt.workers = 4;
  opt.executor = [](const batch::Job& job, const batch::JobContext&) {
    batch::JobExecution exec;
    exec.verified = true;
    (void)job;
    return exec;
  };
  Server server(std::move(opt));
  server.start();

  std::vector<std::thread> clients;
  std::vector<int> ok_counts(4, 0);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.socket_path());
      for (int i = 0; i < 10; ++i) {
        core::SynthesisRequest r;
        r.id = "conn" + std::to_string(c) + "-" + std::to_string(i);
        r.circuit = "c17";
        if (client.submit(r).id == r.id) {
          ++ok_counts[c];
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  for (const int n : ok_counts) {
    EXPECT_EQ(n, 10);
  }
  server.stop();
}

// ---------- TCP transport ----------

TEST(Transport, ForAddressClassifiesEndpoints) {
  EXPECT_EQ(Transport::for_address("127.0.0.1:7000")->describe(),
            "127.0.0.1:7000");
  EXPECT_EQ(Transport::for_address("[::1]:7000")->describe(), "::1:7000");
  // No numeric port suffix → a Unix socket path, colons and all.
  EXPECT_EQ(Transport::for_address("/tmp/rcgp.sock")->describe(),
            "/tmp/rcgp.sock");
  EXPECT_EQ(Transport::for_address("dir/with:colon")->describe(),
            "dir/with:colon");
  EXPECT_THROW(Transport::for_address(""), std::invalid_argument);
  EXPECT_THROW(Transport::for_address("host:99999"), std::invalid_argument);
  // A digit run long enough to overflow unsigned long is still the
  // port-out-of-range error, not std::out_of_range from the converter.
  EXPECT_THROW(Transport::for_address("host:99999999999999999999"),
               std::invalid_argument);
}

TEST(Transport, TcpServesTheSameProtocol) {
  ServeOptions opt;
  opt.listen = "127.0.0.1:0"; // ephemeral port
  opt.workers = 2;
  Server server(std::move(opt));
  server.start();
  const std::string address = server.bound_address();
  // The kernel resolved the ephemeral port to a real one.
  EXPECT_EQ(address.rfind("127.0.0.1:", 0), 0u) << address;
  EXPECT_NE(address, "127.0.0.1:0");

  Client client(address);
  const core::SynthesisRequest req = small_request("tcp-and2");
  const core::SynthesisResponse resp = client.submit(req);
  EXPECT_EQ(resp.id, "tcp-and2");
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.verified);
  const rqfp::Netlist net = io::parse_rqfp_string(resp.netlist);
  EXPECT_EQ(rqfp::simulate(net), req.spec);
  server.stop();
}

TEST(Transport, TcpConnectToNothingThrows) {
  // Port 1 on localhost: virtually never listening, and connect fails fast.
  EXPECT_THROW(connect_tcp("127.0.0.1", 1), std::runtime_error);
}

// ---------- daemon-side evolve checkpoints (island worker contract) ----------

TEST(Server, CheckpointDirMakesEvolveJobsResumable) {
  const auto dir =
      std::filesystem::temp_directory_path() / "rcgp_serve_ckptdir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<std::pair<std::string, bool>> seen; // (checkpoint_path, resume)
  ServeOptions opt;
  opt.socket_path = temp_socket("ckptdir.sock");
  opt.checkpoint_dir = dir.string();
  opt.executor = [&](const batch::Job& job, const batch::JobContext& ctx) {
    seen.emplace_back(ctx.checkpoint_path, ctx.resume_from_checkpoint);
    if (!ctx.checkpoint_path.empty() && !ctx.resume_from_checkpoint) {
      if (job.id == "island-0") {
        std::ofstream(ctx.checkpoint_path) << "stub"; // simulate a slice
      } else if (job.id == "fleet-0") {
        // A multi-island run persists only a fleet manifest in the
        // context's fleet directory, never the single checkpoint file.
        EXPECT_EQ(ctx.fleet_dir, batch::fleet_state_dir(ctx.checkpoint_path));
        std::filesystem::create_directories(ctx.fleet_dir);
        std::ofstream(ctx.fleet_dir + "/fleet.json") << "{}";
      }
    }
    batch::JobExecution exec;
    exec.verified = true;
    return exec;
  };
  Server server(std::move(opt));
  server.start();

  Client client(server.socket_path());
  (void)client.submit(small_request("island-0"));
  (void)client.submit(small_request("island-0")); // same id → resume
  core::SynthesisRequest anneal = small_request("no-ckpt");
  anneal.algorithm = core::Algorithm::kAnneal;
  (void)client.submit(anneal);
  (void)client.submit(small_request("fleet-0"));
  (void)client.submit(small_request("fleet-0")); // manifest exists → resume
  server.stop();

  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0].first, (dir / "island-0.ckpt").string());
  EXPECT_FALSE(seen[0].second); // no file yet: fresh
  EXPECT_EQ(seen[1].first, (dir / "island-0.ckpt").string());
  EXPECT_TRUE(seen[1].second); // the stub file exists now: resume
  EXPECT_TRUE(seen[2].first.empty()); // kAnneal jobs never checkpoint
  EXPECT_FALSE(seen[3].second); // neither artifact yet: fresh
  EXPECT_TRUE(seen[4].second); // fleet manifest alone triggers resume
  std::filesystem::remove_all(dir);
}

TEST(Server, StopIsIdempotentAndRestartable) {
  const std::string path = temp_socket("restart.sock");
  {
    ServeOptions opt;
    opt.socket_path = path;
    Server server(std::move(opt));
    server.start();
    server.stop();
    server.stop(); // idempotent
  }
  // A new server binds the same path cleanly (stale files are unlinked).
  ServeOptions opt;
  opt.socket_path = path;
  Server server(std::move(opt));
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
}

} // namespace
} // namespace rcgp::serve
