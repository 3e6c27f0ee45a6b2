#include <chrono>

#include "predict/ptool.h"
#include "prt/comm.h"
#include "scenario.h"

namespace perfbench {

namespace core = msra::core;

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

core::DatasetDesc float_dataset(std::string name,
                                std::array<std::uint64_t, 3> dims,
                                core::Location location) {
  core::DatasetDesc desc;
  desc.name = std::move(name);
  desc.dims = dims;
  desc.etype = core::ElementType::kFloat32;
  desc.location = location;
  return desc;
}

bool expect_ok(const msra::Status& status, const std::string& what,
               std::vector<std::string>& errors) {
  if (status.ok()) return true;
  errors.push_back(what + ": " + status.to_string());
  return false;
}

double calibrate(Bed& bed, Spans& spans, std::vector<std::string>& errors) {
  const auto start = std::chrono::steady_clock::now();
  msra::predict::PToolConfig config;
  config.sizes = {64ull << 10, 256ull << 10, 1ull << 20, 2ull << 20,
                  4ull << 20,  8ull << 20,   16ull << 20};
  config.repeats = 1;
  msra::predict::PTool ptool(bed.system, bed.perfdb);
  {
    Spans::Scope span(spans, "PTool::measure_all");
    expect_ok(ptool.measure_all(config), "PTool calibration", errors);
  }
  bed.system.reset_time();
  return seconds_since(start);
}

std::vector<std::uint64_t> seed_dataset(core::StorageSystem& system,
                                        const std::string& app,
                                        const core::DatasetDesc& desc,
                                        int timesteps, std::uint64_t seed,
                                        std::vector<std::string>& errors) {
  std::vector<std::uint64_t> sums;
  core::Session session(system, {.application = app});
  auto handle = session.open(desc);
  if (!expect_ok(handle.status(), "open " + desc.name, errors)) return sums;
  Rng rng(seed);
  std::vector<std::byte> bytes(desc.global_bytes());
  for (int t = 0; t < timesteps; ++t) {
    for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next() >> 56);
    msra::Status status = msra::Status::Ok();
    msra::prt::World world(1);
    world.run([&](msra::prt::Comm& comm) {
      status = (*handle)->write_timestep(comm, t, bytes);
    });
    if (!expect_ok(status, "seed " + desc.name, errors)) return sums;
    sums.push_back(fnv1a(bytes.data(), bytes.size()));
  }
  expect_ok(session.finalize(), "finalize seeding of " + desc.name, errors);
  return sums;
}

void verify_dataset(core::StorageSystem& system, const std::string& app,
                    const std::string& dataset,
                    const std::vector<std::uint64_t>& expected,
                    std::vector<std::string>& errors) {
  core::Session session(system, {.application = app});
  auto handle = session.open_existing(dataset);
  if (!expect_ok(handle.status(), "reopen " + dataset, errors)) return;
  msra::simkit::Timeline timeline;
  for (std::size_t t = 0; t < expected.size(); ++t) {
    auto bytes = (*handle)->read_whole(static_cast<int>(t),
                                       {.timeline = &timeline});
    if (!expect_ok(bytes.status(), "read back " + dataset, errors)) return;
    if (fnv1a(bytes->data(), bytes->size()) != expected[t]) {
      errors.push_back("payload of " + dataset + " t" + std::to_string(t) +
                       " differs from what was written");
    }
  }
  expect_ok(session.finalize(), "finalize read-back of " + dataset, errors);
}

std::unique_ptr<Scenario> make_fleet_open(std::uint64_t seed);
std::unique_ptr<Scenario> make_qos_classed(std::uint64_t seed);
std::unique_ptr<Scenario> make_astro3d_post(std::uint64_t seed);
std::unique_ptr<Scenario> make_campaign_tier(std::uint64_t seed);

std::unique_ptr<Scenario> make_scenario(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fleet_open") return make_fleet_open(seed);
  if (name == "qos_classed") return make_qos_classed(seed);
  if (name == "astro3d_post") return make_astro3d_post(seed);
  if (name == "campaign_tier") return make_campaign_tier(seed);
  return nullptr;
}

}  // namespace perfbench
