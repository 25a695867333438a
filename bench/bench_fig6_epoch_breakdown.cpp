// Figure 6: client runtime-per-epoch breakdown with FedSZ compression —
// mean client training time, server-side validation time, and total
// compression time per communication round, for every model x dataset pair
// at REL 1e-2.
//
//   bench_fig6_epoch_breakdown [--smoke] [--json PATH] [--clients N]
//                              [--rounds N] [--threads N] [--seed N]
//
// --smoke runs CIFAR-10's three models only, with 2 clients, 10 rounds and
// one thread. Every round after the first is timed; nine timed rounds keep
// a short slow spell on a shared host from sinking the gated rates. --json
// writes one run per (dataset, model): train_mb_s and eval_mb_s are the
// input-image megabytes per second of client training and of server
// evaluation (compare_baselines.py gates them), and compression_share is
// compression's share of the timed rounds.
#include <cstdio>

#include "common.hpp"
#include "core/fl/coordinator.hpp"
#include "data/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace fedsz;
  const benchx::BenchOptions options = benchx::parse_bench_options(argc, argv);
  const std::vector<std::string> datasets =
      options.smoke ? std::vector<std::string>{"cifar10"}
                    : data::dataset_names();
  const std::size_t clients =
      options.clients > 0 ? options.clients : (options.smoke ? 2 : 4);
  std::printf(
      "Figure 6: client runtime per epoch breakdown (FedSZ SZ2 @ REL 1e-2,\n"
      "tiny-scale models, %zu clients)\n\n",
      clients);
  benchx::JsonValue runs = benchx::JsonValue::array();
  for (const std::string& dataset : datasets) {
    const data::SyntheticSpec spec = data::dataset_spec(dataset);
    const double image_mb =
        static_cast<double>(spec.channels * spec.image_size * spec.image_size) *
        sizeof(float) / 1e6;
    std::printf("Dataset: %s\n", dataset.c_str());
    benchx::Table table({"Model", "Client Training (s)", "Validation (s)",
                         "Compression (s)", "Compression share",
                         "Train MB/s", "Eval MB/s", "Plan (lossy/lossless)"});
    for (const std::string& arch : nn::model_architectures()) {
      nn::ModelConfig model;
      model.arch = arch;
      model.scale = nn::ModelScale::kTiny;
      model.in_channels = spec.channels;
      model.image_size = spec.image_size;
      model.num_classes = spec.classes;
      auto [train, test] = data::make_dataset(dataset);
      core::FlRunConfig config;
      config.clients = clients;
      config.rounds =
          options.rounds > 0 ? options.rounds : (options.smoke ? 10 : 2);
      config.eval_limit = 256;
      config.threads = options.threads_or(options.smoke ? 1 : 4);
      config.seed = options.seed_or(config.seed);
      config.client.batch_size = 16;
      const std::size_t train_samples = spec.image_size >= 64 ? 256 : 512;
      const data::DatasetPtr test_set = data::take(test, 256);
      core::FlCoordinator coordinator(model, data::take(train, train_samples),
                                      test_set, config,
                                      core::make_fedsz_codec());
      const core::FlRunResult result = coordinator.run();
      // Time every round after the first (which pays cache warm-up). A
      // round's train_seconds is its participants' mean training time and
      // aggregate_weight their summed samples; compression is the per-round
      // compress + decompress means the coordinator already aggregates from
      // CompressionStats.
      const std::size_t first = result.rounds.size() > 1 ? 1 : 0;
      const double timed = static_cast<double>(result.rounds.size() - first);
      const double epoch_mb = config.client.local_epochs * image_mb;
      double train_s = 0.0, eval_s = 0.0, codec_s = 0.0, client_mb = 0.0;
      for (std::size_t r = first; r < result.rounds.size(); ++r) {
        const core::RoundRecord& record = result.rounds[r];
        train_s += record.train_seconds;
        eval_s += record.eval_seconds;
        codec_s += record.compress_seconds + record.decompress_seconds;
        client_mb += record.aggregate_weight * epoch_mb / record.participants;
      }
      const double total = train_s + eval_s + codec_s;
      const double train_mb_s = client_mb / train_s;
      const double eval_mb_s =
          timed * static_cast<double>(test_set->size()) * image_mb / eval_s;
      const core::ClientTraceEntry& first_client =
          result.rounds.back().clients.front();
      table.add_row({nn::model_display_name(arch),
                     benchx::fmt(train_s / timed, 3),
                     benchx::fmt(eval_s / timed, 3),
                     benchx::fmt(codec_s / timed, 4),
                     benchx::fmt(codec_s / total * 100.0, 1) + "%",
                     benchx::fmt(train_mb_s, 2), benchx::fmt(eval_mb_s, 2),
                     std::to_string(first_client.lossy_tensors) + "/" +
                         std::to_string(first_client.lossless_tensors)});
      benchx::JsonValue run = benchx::JsonValue::object();
      run.set("name", dataset + "/" + arch)
          .set("train_mb_s", train_mb_s)
          .set("eval_mb_s", eval_mb_s)
          .set("compression_share", codec_s / total)
          .set("train_seconds", train_s / timed)
          .set("eval_seconds", eval_s / timed)
          .set("compression_seconds", codec_s / timed);
      runs.push(std::move(run));
    }
    table.print();
    std::printf("\n");
  }
  std::printf(
      "Shape to check (paper Fig. 6): compression is a small slice of the\n"
      "epoch — the paper reports an average of 4.7%% of client wall time,\n"
      "worst case 17%% (AlexNet/CIFAR-10).\n");
  if (!options.json_path.empty()) {
    benchx::JsonValue json = benchx::JsonValue::object();
    json.set("bench", "fig6_epoch_breakdown")
        .set("smoke", options.smoke)
        .set("clients", clients)
        .set("runs", std::move(runs));
    benchx::write_json(options.json_path, json);
    std::printf("\nwrote %s\n", options.json_path.c_str());
  }
  return 0;
}
