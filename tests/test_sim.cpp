// Tests of the virtual cluster: topology and routing, link-profile cost
// ordering, deterministic virtual time, program images, endpoint lifecycle,
// and traffic accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>

#include "sim/cluster.hpp"
#include "sim/network.hpp"

namespace npss::sim {
namespace {

TEST(LinkProfiles, CatalogOrderingMatchesThePaperNetworkClasses) {
  const LinkProfile& loop = link_profile("loopback");
  const LinkProfile& lan = link_profile("ethernet-lan");
  const LinkProfile& campus = link_profile("campus-multigateway");
  const LinkProfile& wan = link_profile("internet-wan");
  const std::size_t payload = 200;  // a TESS-call-sized message
  EXPECT_LT(loop.transfer_time(payload), lan.transfer_time(payload));
  EXPECT_LT(lan.transfer_time(payload), campus.transfer_time(payload));
  EXPECT_LT(campus.transfer_time(payload), wan.transfer_time(payload));
}

TEST(LinkProfiles, WanCostIsLatencyDominatedForSmallPayloads) {
  const LinkProfile& wan = link_profile("internet-wan");
  const util::SimTime base = wan.transfer_time(0);
  const util::SimTime with_payload = wan.transfer_time(200);
  // Serialization of a 200-byte call adds well under half the total.
  EXPECT_LT(with_payload - base, base / 2);
}

TEST(LinkProfiles, BandwidthMattersForBulkPayloads) {
  const LinkProfile& wan = link_profile("internet-wan");
  EXPECT_GT(wan.transfer_time(1 << 20), 10 * wan.transfer_time(200));
}

TEST(LinkProfiles, UnknownProfileThrows) {
  EXPECT_THROW((void)link_profile("fddi"), util::NoRouteError);
}

// Entries under /proc/self/task (live threads) and lines in
// /proc/self/maps (mappings, two per unjoined thread stack + guard).
std::size_t task_count() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_.add_machine("a", "sun-sparc10", "site1");
    cluster_.add_machine("b", "cray-ymp", "site1");
    cluster_.add_machine("c", "ibm-rs6000", "site2");
    cluster_.set_site_link("site1", "site2", link_profile("internet-wan"));
  }
  Cluster cluster_;
};

TEST_F(ClusterTest, RoutingPicksTheRightLink) {
  const Machine& a = cluster_.machine("a");
  const Machine& b = cluster_.machine("b");
  const Machine& c = cluster_.machine("c");
  EXPECT_EQ(cluster_.route(a, a).name, "loopback");
  EXPECT_EQ(cluster_.route(a, b).name, "ethernet-lan");
  EXPECT_EQ(cluster_.route(a, c).name, "internet-wan");
  EXPECT_EQ(cluster_.route(c, a).name, "internet-wan");
}

TEST_F(ClusterTest, MissingRouteAndMachineAreErrors) {
  cluster_.add_machine("d", "sgi-4d340", "site3");
  EXPECT_THROW((void)cluster_.route(cluster_.machine("a"),
                                    cluster_.machine("d")),
               util::NoRouteError);
  EXPECT_THROW((void)cluster_.machine("zz"), util::NoSuchMachineError);
  EXPECT_THROW((void)cluster_.add_machine("a", "sun-sparc10", "x"),
               util::NoSuchMachineError);
}

TEST_F(ClusterTest, MessageDeliveryAdvancesVirtualTimeDeterministically) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("c", "rx");
  const util::Bytes payload(100, 0x55);
  cluster_.send(*tx, rx->address(), payload);
  auto env = rx->receive();
  ASSERT_TRUE(env.has_value());
  const LinkProfile& wan = link_profile("internet-wan");
  EXPECT_EQ(rx->clock().now(), wan.transfer_time(100));
  EXPECT_EQ(env->payload, payload);
  // Sending again from the (still zero-clock) sender keeps the receiver
  // at max(own, stamp) — virtual time is monotone.
  cluster_.send(*tx, rx->address(), payload);
  rx->receive();
  EXPECT_EQ(rx->clock().now(), wan.transfer_time(100));
}

TEST_F(ClusterTest, ClockJoinTakesMaximum) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("b", "rx");
  rx->clock().advance(1'000'000);
  cluster_.send(*tx, rx->address(), util::Bytes{1});
  rx->receive();
  EXPECT_EQ(rx->clock().now(), 1'000'000);
}

TEST_F(ClusterTest, SendToRetiredEndpointFails) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr rx = cluster_.create_endpoint("b", "rx");
  const std::string addr = rx->address();
  EXPECT_TRUE(cluster_.endpoint_alive(addr));
  cluster_.retire_endpoint(addr);
  EXPECT_FALSE(cluster_.endpoint_alive(addr));
  EXPECT_THROW(cluster_.send(*tx, addr, util::Bytes{1}),
               util::NoRouteError);
  cluster_.retire_endpoint(addr);  // idempotent
}

TEST_F(ClusterTest, SpawnRunsImageWithArgsAndRetiresOnExit) {
  std::atomic<int> observed{0};
  EndpointPtr ep = cluster_.spawn(
      "b", "worker",
      [&](ProcessContext& ctx) {
        observed = static_cast<int>(ctx.args().size());
        // Process exits immediately.
      },
      {"x", "y", "z"});
  // Wait for the thread to retire the endpoint.
  for (int i = 0; i < 1000 && cluster_.endpoint_alive(ep->address()); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(cluster_.endpoint_alive(ep->address()));
  EXPECT_EQ(observed.load(), 3);
}

TEST_F(ClusterTest, FinishedProcessThreadsAreReapedByLaterSpawns) {
  // A long-lived cluster runs many short processes (a line's servers
  // come and go). Each finished process must give its thread back when
  // the next one spawns, not hold its stack until shutdown().
  auto run_one = [&] {
    EndpointPtr ep = cluster_.spawn("b", "short", [](ProcessContext&) {});
    while (cluster_.endpoint_alive(ep->address())) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  for (int i = 0; i < 8; ++i) run_one();  // warm the thread-stack cache
  const std::size_t tasks_before = task_count();
  const std::size_t maps_before = mapping_count();
  for (int i = 0; i < 200; ++i) run_one();
  EXPECT_LE(task_count(), tasks_before + 2);
  // Unreaped, the 200 stacks would add ~400 mappings.
  EXPECT_LT(mapping_count(), maps_before + 40);
  cluster_.shutdown();
}

TEST_F(ClusterTest, InstalledImagesSpawnByPath) {
  std::atomic<bool> ran{false};
  cluster_.install_image("b", "/bin/job",
                         [&](ProcessContext&) { ran = true; });
  EXPECT_TRUE(cluster_.has_image("b", "/bin/job"));
  EXPECT_FALSE(cluster_.has_image("a", "/bin/job"));
  cluster_.spawn_image("b", "/bin/job", "job");
  for (int i = 0; i < 1000 && !ran; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_THROW((void)cluster_.spawn_image("a", "/bin/job", "job"),
               util::NoSuchImageError);
}

TEST_F(ClusterTest, ComputeScalesWithCpuSpeed) {
  EndpointPtr slow = cluster_.create_endpoint("a", "slow");  // speed 1.0
  EndpointPtr fast = cluster_.create_endpoint("b", "fast");  // Cray, 6.0
  ProcessContext slow_ctx(cluster_, slow, {});
  ProcessContext fast_ctx(cluster_, fast, {});
  slow_ctx.compute(6000.0);
  fast_ctx.compute(6000.0);
  EXPECT_EQ(slow->clock().now(), 6000);
  EXPECT_EQ(fast->clock().now(), 1000);
}

TEST_F(ClusterTest, TrafficAccountingPerLink) {
  EndpointPtr tx = cluster_.create_endpoint("a", "tx");
  EndpointPtr lan_rx = cluster_.create_endpoint("b", "rx1");
  EndpointPtr wan_rx = cluster_.create_endpoint("c", "rx2");
  cluster_.send(*tx, lan_rx->address(), util::Bytes(10, 0));
  cluster_.send(*tx, wan_rx->address(), util::Bytes(20, 0));
  cluster_.send(*tx, wan_rx->address(), util::Bytes(30, 0));

  Cluster::Traffic total = cluster_.traffic();
  EXPECT_EQ(total.messages, 3u);
  EXPECT_EQ(total.bytes, 60u);
  auto by_link = cluster_.traffic_by_link();
  EXPECT_EQ(by_link["ethernet-lan"].messages, 1u);
  EXPECT_EQ(by_link["internet-wan"].messages, 2u);
  EXPECT_EQ(by_link["internet-wan"].bytes, 50u);

  cluster_.reset_traffic();
  EXPECT_EQ(cluster_.traffic().messages, 0u);
}

TEST_F(ClusterTest, ShutdownClosesEverything) {
  EndpointPtr ep = cluster_.spawn("a", "sleeper", [](ProcessContext& ctx) {
    // Blocks until the endpoint closes.
    while (ctx.self().receive()) {
    }
  });
  cluster_.shutdown();
  EXPECT_FALSE(cluster_.endpoint_alive(ep->address()));
}

}  // namespace
}  // namespace npss::sim
