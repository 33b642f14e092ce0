// `mixq run` -- one-shot inference over a flash image with the planned
// SIMD engine, on CSV / raw float32 / deterministic synthetic inputs.
// Runs through a one-model serve::ModelRegistry and the response formatter
// the daemon uses, so `--ndjson` output is byte-identical to what `mixq
// serve` responds for the same inputs -- the invariant the CLI smoke test
// pins.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "runtime/flash_image.hpp"
#include "serve/registry.hpp"

namespace mixq::cli {

namespace {

constexpr const char* kUsage =
    "usage: mixq run IMAGE --input SPEC [options]\n"
    "\n"
    "  --input SPEC         synthetic:N | csv:PATH | raw:PATH (required)\n"
    "  --mmap               zero-copy load: map the image instead of\n"
    "                       reading it (raw weights stay in the mapping,\n"
    "                       entropy-coded weights decode straight into the\n"
    "                       plan); results are bit-identical either way\n"
    "  --seed N             synthetic input seed (default 7)\n"
    "  --threads N          worker lanes (default 1, 0 = hardware)\n"
    "  --ndjson             one {\"id\":...,\"predicted\":...,\"logits\":[...]}\n"
    "                       line per sample (byte-identical to `mixq serve`)\n"
    "  --out PATH           write the output lines to PATH instead of stdout\n"
    "  --emit-requests PATH also write the matching serve request lines\n"
    "                       ({\"id\":...,\"input\":[...]}), for piping into\n"
    "                       `mixq serve`\n";

}  // namespace

int cmd_run(Args& args) {
  if (args.flag("--help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto input_spec = args.opt("--input");
  const bool use_mmap = args.flag("--mmap");
  const auto seed = static_cast<std::uint64_t>(args.int_opt_or("--seed", 7));
  const int threads = static_cast<int>(args.int_opt_or("--threads", 1));
  const bool ndjson = args.flag("--ndjson");
  const auto out_path = args.opt("--out");
  const auto requests_path = args.opt("--emit-requests");
  args.done();
  const auto pos = args.positionals();
  if (pos.size() != 1) throw UsageError("expected exactly one IMAGE path");
  if (!input_spec) throw UsageError("--input SPEC is required");

  const runtime::QuantizedNet net =
      use_mmap ? runtime::load_flash_image_mmap(pos[0])
               : runtime::read_flash_image_file(pos[0]);
  serve::ModelRegistry registry(threads);
  registry.add_model("default", net);
  const auto model = registry.resolve("default");
  auto samples = load_inputs(*input_spec, model->input_shape(), seed);

  // One "batch" spanning every sample, partitioned across the lanes --
  // exactly how the daemon executes a micro-batch, and bit-exact with the
  // serial planned path for every --threads value.
  std::vector<serve::Request> batch(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    batch[i].id = static_cast<std::int64_t>(i);
    batch[i].input = std::move(samples[i]);
  }
  std::vector<runtime::QInferenceResult> results;
  registry.infer_batch(*model, batch, results);

  if (requests_path) {
    std::ofstream rf(*requests_path);
    if (!rf) throw std::runtime_error("cannot write " + *requests_path);
    for (const auto& r : batch) {
      rf << serve::format_request_line(
                r.id, r.input.data(),
                static_cast<std::int64_t>(r.input.size()))
         << '\n';
    }
  }

  std::ofstream of;
  if (out_path) {
    of.open(*out_path);
    if (!of) throw std::runtime_error("cannot write " + *out_path);
  }
  std::ostream& out = out_path ? static_cast<std::ostream&>(of) : std::cout;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (ndjson) {
      out << serve::format_result_line(batch[i].id, results[i]) << '\n';
    } else {
      out << "sample " << i << ": predicted " << results[i].predicted
          << "  logits:";
      for (const float l : results[i].logits) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %.6g", l);
        out << buf;
      }
      out << '\n';
    }
  }
  return 0;
}

}  // namespace mixq::cli
