// Generative differential-verification fuzzer.
//
// Generates seeded random engine configurations, checks every oracle
// contract against each, shrinks any violation to a minimal reproducer
// and (optionally) writes it as a committable JSON record.  Exit code
// is the violation count (0 = clean), so CI can gate on it directly.
//
//   resipe_fuzz --cases 1000                     # nightly sweep
//   resipe_fuzz --cases 500 --budget-s 120       # CI job
//   resipe_fuzz --seed0 7341 --cases 1           # replay one seed
//   resipe_fuzz --contract fast_vs_tile          # focus one invariant
//   resipe_fuzz --emit-repro out/                # write repro JSON
//   resipe_fuzz --replay tests/corpus/x.json     # re-check a record
//   resipe_fuzz --inject-bug fastmvm-row-drop    # harness self-test
//   resipe_fuzz --inject-bug exp-libm-ulp --contract exp_libm_identity
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <filesystem>

#include "resipe/common/file.hpp"
#include "resipe/verify/contracts.hpp"
#include "resipe/verify/fuzzer.hpp"
#include "resipe/verify/generators.hpp"
#include "resipe/verify/serialize.hpp"
#include "resipe/verify/shrink.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --cases N            generated cases (default 100)\n"
      "  --budget-s S         wall-clock budget in seconds (0 = off)\n"
      "  --seed0 N            first seed of the range (default 1)\n"
      "  --contract NAME      check only this contract\n"
      "  --emit-repro DIR     write shrunk violations as JSON records\n"
      "  --no-shrink          report violations unshrunk\n"
      "  --max-failures N     stop after N violations (default 10)\n"
      "  --replay FILE        re-check one repro/corpus JSON record\n"
      "  --emit-corpus DIR    write generated cases as corpus records\n"
      "  --snippet FILE       print the C++ snippet for a record\n"
      "  --inject-bug NAME    arm a deliberate bug (fastmvm-row-drop,\n"
      "                       exp-libm-ulp)\n"
      "  --list-contracts     print the contract registry\n",
      argv0);
}

int check_one(const resipe::verify::CaseSpec& spec,
              const std::string& contract) {
  const auto result = resipe::verify::replay_case(spec, contract);
  std::printf("%s on %s: %s\n", contract.c_str(), spec.summary().c_str(),
              result.skipped ? "SKIP" : (result.pass ? "PASS" : "FAIL"));
  if (!result.detail.empty()) std::printf("  %s\n", result.detail.c_str());
  return result.violated() ? 1 : 0;
}

int replay_file(const std::string& path, bool print_snippet) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto record = resipe::verify::repro_from_json(buf.str());
  if (print_snippet) {
    std::printf("%s", resipe::verify::repro_snippet(record).c_str());
    return 0;
  }
  // Corpus records use contract "all": the case anchors every invariant.
  if (record.contract == "all") {
    int violations = 0;
    for (const auto& c : resipe::verify::contract_registry()) {
      violations += check_one(record.spec, c.name);
    }
    return violations > 0 ? 1 : 0;
  }
  return check_one(record.spec, record.contract);
}

int emit_corpus(const std::string& dir,
                const resipe::verify::FuzzOptions& options) {
  std::filesystem::create_directories(dir);
  for (std::uint64_t i = 0; i < options.cases; ++i) {
    const std::uint64_t seed = options.seed0 + i;
    resipe::verify::ReproRecord record;
    record.spec = resipe::verify::generate_case(
        resipe::verify::CaseDescriptor{resipe::verify::kSchemaVersion, seed});
    record.contract = "all";
    const auto path = std::filesystem::path(dir) /
                      ("case_seed" + std::to_string(seed) + ".json");
    resipe::write_text_file(path.string(), "corpus case",
                            [&record](std::ostream& os) {
                              os << resipe::verify::repro_to_json(record);
                            });
    std::printf("%s  %s\n", path.c_str(), record.spec.summary().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  resipe::verify::FuzzOptions options;
  std::string replay_path;
  std::string snippet_path;
  std::string corpus_dir;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cases") {
      options.cases = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--budget-s") {
      options.budget_s = std::strtod(next(), nullptr);
    } else if (arg == "--seed0") {
      options.seed0 = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--contract") {
      options.contract_filter = next();
    } else if (arg == "--emit-repro") {
      options.repro_dir = next();
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--max-failures") {
      options.max_failures = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--emit-corpus") {
      corpus_dir = next();
    } else if (arg == "--snippet") {
      snippet_path = next();
    } else if (arg == "--inject-bug") {
      const std::string bug = next();
      if (bug == "fastmvm-row-drop") {
        resipe::verify::set_injected_bug(
            resipe::verify::InjectedBug::kFastMvmRowDrop);
      } else if (bug == "exp-libm-ulp") {
        resipe::verify::set_injected_bug(
            resipe::verify::InjectedBug::kExpLibmUlp);
      } else {
        std::fprintf(stderr, "unknown bug '%s'\n", bug.c_str());
        return 2;
      }
    } else if (arg == "--list-contracts") {
      for (const auto& c : resipe::verify::contract_registry()) {
        std::printf("%-24s %s\n", c.name.c_str(), c.description.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    if (!replay_path.empty() || !snippet_path.empty()) {
      const bool snippet = !snippet_path.empty();
      return replay_file(snippet ? snippet_path : replay_path, snippet);
    }
    if (!corpus_dir.empty()) return emit_corpus(corpus_dir, options);
    const auto report = resipe::verify::run_fuzz(options);
    std::printf("%s", report.render().c_str());
    std::printf("%s\n", report.bench_json().c_str());
    return report.violations() > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
