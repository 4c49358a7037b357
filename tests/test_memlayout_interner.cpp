// Memory-layout primitives: app-id interning and the dense slot store the
// hot path is keyed by (DESIGN.md §5i).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "sim/interner.hpp"
#include "sim/slot_store.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::sim {
namespace {

TEST(Interner, DuplicateRegistrationReturnsSameId) {
  Interner in;
  const Interner::Id a = in.intern("hadoop");
  const Interner::Id b = in.intern("spark");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("hadoop"), a);
  EXPECT_EQ(in.intern("spark"), b);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.name(a), "hadoop");
  EXPECT_EQ(in.name(b), "spark");
}

TEST(Interner, IdsAreDenseInRegistrationOrder) {
  Interner in;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(in.intern("app-" + std::to_string(i)), static_cast<Interner::Id>(i));
  }
}

TEST(Interner, UnknownLookupReturnsInvalid) {
  Interner in;
  (void)in.intern("known");
  EXPECT_EQ(in.lookup("unknown"), Interner::kInvalid);
  EXPECT_EQ(in.lookup(""), Interner::kInvalid);
  EXPECT_EQ(in.lookup("known"), 0);
  // Heterogeneous lookup: a string_view into a larger buffer resolves too.
  const std::string buf = "known-with-suffix";
  EXPECT_EQ(in.lookup(std::string_view(buf).substr(0, 5)), 0);
}

TEST(Interner, NameOfInvalidIdThrows) {
  Interner in;
  EXPECT_THROW((void)in.name(Interner::kInvalid), std::out_of_range);
  EXPECT_THROW((void)in.name(7), std::out_of_range);
}

TEST(SlotMap, TryEmplaceFindEraseRoundTrip) {
  SlotMap<std::string> m;
  EXPECT_TRUE(m.empty());
  const auto [v, inserted] = m.try_emplace(5, "five");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, "five");
  // Existing key: same value back, nothing constructed.
  const auto [v2, inserted2] = m.try_emplace(5, "other");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, "five");
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.contains(5));
  EXPECT_FALSE(m.contains(4));
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_EQ(m.at(5), "five");
  EXPECT_THROW((void)m.at(4), std::out_of_range);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
}

TEST(SlotMap, NegativeKeyThrows) {
  SlotMap<int> m;
  EXPECT_THROW(m.try_emplace(-1, 0), std::invalid_argument);
  EXPECT_FALSE(m.contains(-1));
  EXPECT_EQ(m.find(-1), nullptr);
}

TEST(SlotMap, KeyOrderedScanMatchesSortedKeys) {
  SlotMap<int> m;
  for (int key : {9, 2, 40, 0, 17}) m.try_emplace(key, key * 10);
  std::vector<int> walked;
  for (int k = m.first_key(); k != SlotMap<int>::kEnd; k = m.next_key(k)) {
    walked.push_back(k);
    EXPECT_EQ(m.at(k), k * 10);
  }
  EXPECT_EQ(walked, (std::vector<int>{0, 2, 9, 17, 40}));
}

TEST(SlotMap, EraseDuringScanOfCurrentKey) {
  SlotMap<int> m;
  for (int key : {1, 3, 5, 7}) m.try_emplace(key, key);
  std::vector<int> walked;
  for (int k = m.first_key(); k != SlotMap<int>::kEnd;) {
    const int next = m.next_key(k);
    walked.push_back(k);
    if (k == 3 || k == 7) m.erase(k);
    k = next;
  }
  EXPECT_EQ(walked, (std::vector<int>{1, 3, 5, 7}));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(3));
}

TEST(SlotMap, RecycledSlotGetsFreshValueNeverStaleState) {
  // The fault path depends on this: an evicted VM's slot may be reused by a
  // later VM under a different key, and the new key must never observe the
  // old value.
  SlotMap<std::vector<int>> m;
  auto [old_vm, ins] = m.try_emplace(3);
  old_vm->assign({1, 2, 3});  // "accumulated state" of the dying VM
  ASSERT_TRUE(ins);
  m.erase(3);
  // The next insertion recycles slot 0 (LIFO free list)...
  const auto [fresh, inserted] = m.try_emplace(11);
  ASSERT_TRUE(inserted);
  // ...but the value is freshly constructed, not the corpse.
  EXPECT_TRUE(fresh->empty());
  EXPECT_FALSE(m.contains(3));
}

TEST(SlotMap, ValuesSurviveGrowthByKeyLookup) {
  SlotMap<double> m;
  for (int k = 0; k < 200; ++k) m.try_emplace(k, k * 0.5);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(m.at(k), k * 0.5) << k;
  EXPECT_EQ(m.size(), 200u);
}

// End to end through the cloud manager: VM ids are cloud-wide monotonic and
// never reused, so after a host crash (all resident VMs destroyed) the
// replacement VMs observe fresh monitor state — nothing resurrects.
TEST(SlotReuse, CrashedVmStateDoesNotResurrectUnderNewIds) {
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 4;
  p.worker_host_limit = 1;  // keep the framework off the crash victim host
  p.seed = 91;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.start_s = 2.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  exp::run_for(c, 100.0);

  core::NodeManager& nm = c.node_manager(1);
  const std::size_t stale_samples = nm.monitor().suspect_series(core::kIo, fio).size();
  ASSERT_GT(stale_samples, 3u);

  // Crash the host (destroys the fio VM) and run the HostCrash cleanup the
  // fault injector performs, then bring the host back empty.
  (void)c.cloud->crash_host("host-1");
  nm.forget_vm(fio);
  c.cloud->restore_host("host-1");
  exp::run_for(c, 50.0);

  // A new antagonist boots; its id is strictly larger — ids never recycle.
  const int fio2 = exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.start_s = 1.0});
  EXPECT_GT(fio2, fio);
  exp::run_for(c, 50.0);

  // The new VM accumulated only its own samples; the dead VM's series is
  // frozen at its crash-time length (lingering, unreachable, harmless).
  const sim::TimeSeries& fresh = nm.monitor().suspect_series(core::kIo, fio2);
  const sim::TimeSeries& stale = nm.monitor().suspect_series(core::kIo, fio);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(stale.size(), stale_samples);
  EXPECT_LT(fresh.size(), stale_samples + 1);
}

}  // namespace
}  // namespace perfcloud::sim
