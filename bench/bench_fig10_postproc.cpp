// Figure 10: post-processing I/O time.
//   (a) data analysis (MSE on temp): read from remote tape vs remote disk;
//   (b) visualization (Volren / interactive viz on vr_temp): read from
//       remote tape vs local disk (the paper's ~10x), and vr_press from
//       remote disk;
//   (c) superfile vs naive many-small-files for Volren's images.
// Every measured number is paired with the predictor's estimate.
// `--json FILE` writes the virtual-time rows as a summary (BENCH_fig10.json).
#include "apps/mse/mse.h"
#include "apps/volren/volren.h"
#include "bench_util.h"
#include "runtime/superfile.h"

namespace msra::bench {
namespace {

using apps::astro3d::Config;
using core::Location;

/// A testbed whose producer dumped only the named viz/analysis datasets to
/// the given locations.
struct ProducedWorld {
  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<core::Session> session;
  Config config;
};

ProducedWorld produce(const std::map<std::string, Location>& hints) {
  ProducedWorld world;
  world.testbed = std::make_unique<Testbed>();
  check(world.testbed->calibrate(), "calibrate");
  world.config = astro_config();
  world.config.default_location = Location::kDisable;
  world.config.hints = hints;
  world.session = std::make_unique<core::Session>(
      world.testbed->system,
      core::SessionOptions{.application = "astro3d", .user = "xshen",
                           .nprocs = world.config.nprocs,
                           .iterations = world.config.iterations});
  check(apps::astro3d::run(*world.session, world.config).status(),
        "astro3d producer");
  world.testbed->system.reset_time();
  return world;
}

double predict_read(ProducedWorld& world, const std::string& dataset,
                    Location location, int nprocs) {
  for (const auto& desc : apps::astro3d::dataset_descs(world.config)) {
    if (desc.name != dataset) continue;
    auto prediction = check(
        world.testbed->predictor.predict_dataset(
            desc, location, world.config.iterations, nprocs,
            predict::IoOp::kRead),
        "read prediction");
    return prediction.total;
  }
  std::fprintf(stderr, "no such dataset: %s\n", dataset.c_str());
  std::exit(1);
}

/// Appends one predicted-vs-measured row to the JSON summary.
void add_row(std::string& rows, const char* part, const char* dataset,
             Location location, double predicted, double measured) {
  char row[256];
  std::snprintf(row, sizeof(row),
                "%s    {\"part\": \"%s\", \"dataset\": \"%s\", "
                "\"location\": \"%s\", \"predicted_s\": %.4f, "
                "\"measured_s\": %.4f}",
                rows.empty() ? "" : ",\n", part, dataset,
                std::string(core::location_name(location)).c_str(), predicted,
                measured);
  rows += row;
}

void part_a(std::string& rows) {
  std::printf("\n-- (a) data analysis: MSE over `temp` --------------------\n");
  std::printf("%-28s %14s %14s\n", "temp placed on", "predicted (s)",
              "measured (s)");
  for (Location location : {Location::kRemoteTape, Location::kRemoteDisk}) {
    auto world = produce({{"temp", location}});
    const double predicted =
        predict_read(world, "temp", location, world.config.nprocs);
    auto result = check(
        apps::mse::run(*world.session, {.dataset = "temp",
                                        .nprocs = world.config.nprocs}),
        "mse");
    std::printf("%-28s %14.1f %14.1f\n",
                std::string(core::location_name(location)).c_str(), predicted,
                result.io_time);
    add_row(rows, "a", "temp", location, predicted, result.io_time);
  }
}

void part_b(std::string& rows) {
  std::printf("\n-- (b) visualization: Volren over `vr_temp` --------------\n");
  std::printf("%-28s %14s %14s\n", "vr_temp placed on", "predicted (s)",
              "measured (s)");
  double tape_time = 0.0, local_time = 0.0;
  for (Location location : {Location::kRemoteTape, Location::kLocalDisk}) {
    auto world = produce({{"vr_temp", location}});
    const double predicted =
        predict_read(world, "vr_temp", location, world.config.nprocs);
    auto result = check(
        apps::volren::run(*world.session,
                          {.dataset = "vr_temp", .width = 64, .height = 64,
                           .nprocs = world.config.nprocs,
                           .image_location = Location::kLocalDisk,
                           .image_base = "volren/b"}),
        "volren");
    (location == Location::kRemoteTape ? tape_time : local_time) =
        result.read_io_time;
    std::printf("%-28s %14.1f %14.1f\n",
                std::string(core::location_name(location)).c_str(), predicted,
                result.read_io_time);
    add_row(rows, "b", "vr_temp", location, predicted, result.read_io_time);
  }
  std::printf("local-vs-tape read speedup: %.1fx (paper: ~10x)\n",
              tape_time / local_time);

  std::printf("\n   `vr_press` read (serial whole-volume, interactive viz):\n");
  std::printf("%-28s %14s %14s\n", "vr_press placed on", "predicted (s)",
              "measured (s)");
  for (Location location : {Location::kRemoteTape, Location::kRemoteDisk}) {
    auto world = produce({{"vr_press", location}});
    const double predicted = predict_read(world, "vr_press", location, 1);
    auto handle =
        check(world.session->open_existing("vr_press"), "open vr_press");
    simkit::Timeline tl;
    const int freq = world.config.viz_freq;
    for (int t = 0; t <= world.config.iterations; t += freq) {
      check(handle->read_whole(t, {.timeline = &tl}).status(), "read_whole");
    }
    std::printf("%-28s %14.1f %14.1f\n",
                std::string(core::location_name(location)).c_str(), predicted,
                tl.now());
    add_row(rows, "b", "vr_press", location, predicted, tl.now());
  }
}

void part_c(std::string& rows) {
  std::printf("\n-- (c) superfile vs naive small files (Volren images) ----\n");
  auto world = produce({{"vr_temp", Location::kLocalDisk}});
  std::printf("%-28s %14s %14s\n", "method", "write (s)", "read-back (s)");
  double naive_write = 0.0, naive_read = 0.0;
  double super_write = 0.0, super_read = 0.0;

  for (bool use_superfile : {false, true}) {
    world.testbed->system.reset_time();
    const std::string base =
        use_superfile ? std::string("volren/super") : std::string("volren/naive");
    auto result = check(
        apps::volren::run(*world.session,
                          {.dataset = "vr_temp", .width = 128, .height = 128,
                           .nprocs = world.config.nprocs,
                           .image_location = Location::kRemoteDisk,
                           .use_superfile = use_superfile,
                           .image_base = base}),
        "volren images");
    // Read everything back the way a later viewer session would.
    world.testbed->system.reset_time();
    simkit::Timeline tl;
    auto& endpoint = world.testbed->system.endpoint(Location::kRemoteDisk);
    if (use_superfile) {
      auto reader = check(runtime::SuperfileReader::open(endpoint, tl,
                                                         base + "/all.super"),
                          "superfile open");
      for (const auto& name : reader.names()) {
        check(reader.read(name).status(), "superfile member");
      }
      super_write = result.write_io_time;
      super_read = tl.now();
    } else {
      auto listed = check(endpoint.list(tl, base + "/"), "list images");
      for (const auto& info : listed) {
        std::vector<std::byte> blob(info.size);
        auto file = check(runtime::FileSession::start(endpoint, tl, info.name,
                                                      srb::OpenMode::kRead),
                          "open image");
        check(file.read(blob), "read image");
        check(file.finish(), "close image");
      }
      naive_write = result.write_io_time;
      naive_read = tl.now();
    }
  }
  std::printf("%-28s %14.1f %14.1f\n", "naive (one file per image)",
              naive_write, naive_read);
  std::printf("%-28s %14.1f %14.1f\n", "superfile", super_write, super_read);
  std::printf("superfile speedup: write %.1fx, read %.1fx\n",
              naive_write / super_write, naive_read / super_read);
  char row[256];
  std::snprintf(row, sizeof(row),
                ",\n    {\"part\": \"c\", \"method\": \"naive\", "
                "\"write_s\": %.4f, \"read_s\": %.4f},\n"
                "    {\"part\": \"c\", \"method\": \"superfile\", "
                "\"write_s\": %.4f, \"read_s\": %.4f}",
                naive_write, naive_read, super_write, super_read);
  rows += row;
}

int run(int argc, char** argv) {
  const std::string json_out = consume_json_out_flag(argc, argv);
  print_header(
      "Figure 10 — post-processing I/O: analysis, visualization, superfile",
      "Shen et al., HPDC 2000, Figure 10 (a), (b), (c)");
  std::string rows;
  part_a(rows);
  part_b(rows);
  part_c(rows);
  write_summary_json(json_out,
                     "{\n  \"figure\": \"fig10\",\n  \"rows\": [\n" + rows +
                         "\n  ]\n}");
  return 0;
}

}  // namespace
}  // namespace msra::bench

int main(int argc, char** argv) { return msra::bench::run(argc, argv); }
