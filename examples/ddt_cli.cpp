// ddt_cli — the command-line front door, approximating the paper's vision of
// a "Test Now" button for driver binaries.
//
//   ddt_cli corpus <dir>                 write the corpus drivers as .ddf files
//   ddt_cli assemble <in.s> <out.ddf>    assemble DVM32 source to a binary
//   ddt_cli disasm <in.ddf>              disassemble a driver binary
//   ddt_cli test <in.ddf> [report]       test a binary; optionally save the
//                                        bug report (replayable evidence)
//   ddt_cli replay <in.ddf> <report>     replay every bug in a saved report
//
// Observability flags for `test` (src/obs; see docs/OBSERVABILITY.md):
//   --trace-out=PATH    export the run's trace events as Chrome trace-event
//                       JSON (chrome://tracing / ui.perfetto.dev)
//   --metrics-out=PATH  write the run's metrics snapshot as JSON
//
// The test/replay pair demonstrates the §3.5 workflow end to end across
// process boundaries: find bugs on one machine, ship <report>, reproduce on
// another.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_events.h"
#include "src/vm/assembler.h"
#include "src/vm/disasm.h"
#include "src/vm/layout.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ddt_cli corpus <dir>\n"
               "  ddt_cli assemble <in.s> <out.ddf>\n"
               "  ddt_cli disasm <in.ddf>\n"
               "  ddt_cli test [--trace-out=PATH] [--metrics-out=PATH] <in.ddf> [report-out]\n"
               "  ddt_cli replay <in.ddf> <report>\n");
  return 2;
}

ddt::PciDescriptor GenericPci() {
  ddt::PciDescriptor pci;
  pci.vendor_id = 0xDD7;
  pci.device_id = 0x0001;
  pci.bars.push_back(ddt::PciBar{0x1000});
  pci.pretty_name = "generic test shell";
  return pci;
}

// Uses the corpus descriptor when the binary matches a corpus driver name
// (vendor/device IDs matter for realism), a generic shell otherwise.
ddt::PciDescriptor DescriptorFor(const ddt::DriverImage& image) {
  for (const ddt::CorpusDriver& driver : ddt::Corpus()) {
    if (driver.name == image.name) {
      return driver.pci;
    }
  }
  return GenericPci();
}

int CmdCorpus(const std::string& dir) {
  for (const ddt::CorpusDriver& driver : ddt::Corpus()) {
    std::string path = dir + "/" + driver.name + ".ddf";
    ddt::Status status = driver.image.SaveFile(path);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes, %zu imports)\n", path.c_str(),
                driver.image.BinaryFileSize(), driver.image.imports.size());
  }
  // Like the paper's corpus, exactly one driver ships with source (the DDK
  // sample): write its assembly too.
  std::string source_path = dir + "/pro100.s";
  std::ofstream source(source_path);
  source << ddt::Pro100Source();
  std::printf("wrote %s (source available for the DDK driver)\n", source_path.c_str());
  return 0;
}

int CmdAssemble(const std::string& in_path, const std::string& out_path) {
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();
  ddt::Result<ddt::AssembledDriver> assembled = ddt::Assemble(source.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "assembly failed: %s\n", assembled.error().c_str());
    return 1;
  }
  ddt::Status status = assembled.value().image.SaveFile(out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu bytes of code, %zu of data, %zu imports, %zu functions\n",
              out_path.c_str(), assembled.value().image.code.size(),
              assembled.value().image.data.size(), assembled.value().image.imports.size(),
              assembled.value().functions.size());
  return 0;
}

int CmdDisasm(const std::string& path) {
  ddt::Result<ddt::DriverImage> image = ddt::DriverImage::LoadFile(path);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.error().c_str());
    return 1;
  }
  const ddt::DriverImage& img = image.value();
  std::printf("driver '%s': entry +0x%x, %zu bytes code, %zu data + %u bss\n", img.name.c_str(),
              img.entry_offset, img.code.size(), img.data.size(), img.bss_size);
  std::printf("imports (%zu):\n", img.imports.size());
  for (size_t i = 0; i < img.imports.size(); ++i) {
    std::printf("  #%zu %s\n", i, img.imports[i].c_str());
  }
  std::printf("%s",
              ddt::DisassembleSegment(img.code.data(), img.code.size(), ddt::kDriverImageBase)
                  .c_str());
  return 0;
}

int CmdTest(const std::string& path, const std::string& report_path,
            const std::string& trace_out, const std::string& metrics_out) {
  ddt::Result<ddt::DriverImage> image = ddt::DriverImage::LoadFile(path);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.error().c_str());
    return 1;
  }
  ddt::DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_states = 512;
  ddt::obs::MetricsRegistry metrics;
  if (!metrics_out.empty()) {
    config.engine.metrics = &metrics;
  }
  if (!trace_out.empty()) {
    ddt::obs::Tracer::Get().Enable();
  }
  ddt::Ddt ddt(config);
  ddt::Result<ddt::DdtResult> result = ddt.TestDriver(image.value(), DescriptorFor(image.value()));
  if (!result.ok()) {
    std::fprintf(stderr, "load failed: %s\n", result.status().message().c_str());
    return 1;
  }
  std::printf("%s", result.value().FormatReport(image.value().name).c_str());
  for (const ddt::Bug& bug : result.value().bugs) {
    std::printf("\n%s", bug.Format(12).c_str());
  }
  if (!trace_out.empty()) {
    ddt::obs::Tracer::Get().Disable();
    std::string error;
    if (!ddt::obs::Tracer::Get().ExportChromeJson(trace_out, &error)) {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote trace to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    out << metrics.Snapshot().ToJson() << "\n";
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!report_path.empty()) {
    ddt::Status status = ddt::SaveBugsFile(report_path, result.value().bugs);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 1;
    }
    std::printf("\nsaved replayable report to %s\n", report_path.c_str());
  }
  return 0;
}

int CmdReplay(const std::string& image_path, const std::string& report_path) {
  ddt::Result<ddt::DriverImage> image = ddt::DriverImage::LoadFile(image_path);
  if (!image.ok()) {
    std::fprintf(stderr, "%s\n", image.error().c_str());
    return 1;
  }
  ddt::Result<std::vector<ddt::Bug>> bugs = ddt::LoadBugsFile(report_path);
  if (!bugs.ok()) {
    std::fprintf(stderr, "%s\n", bugs.error().c_str());
    return 1;
  }
  ddt::DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  int failures = 0;
  for (const ddt::Bug& bug : bugs.value()) {
    ddt::ReplayResult replay =
        ddt::ReplayBug(image.value(), DescriptorFor(image.value()), bug, config);
    std::printf("%-14s %s\n", replay.reproduced ? "REPRODUCED" : "NOT-REPRODUCED",
                bug.Row().c_str());
    failures += replay.reproduced ? 0 : 1;
  }
  std::printf("%zu bug(s), %d failed to reproduce\n", bugs.value().size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  // Split observability flags from positional arguments.
  std::string trace_out;
  std::string metrics_out;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      args.push_back(std::move(arg));
    }
  }
  if ((!trace_out.empty() || !metrics_out.empty()) && command != "test") {
    std::fprintf(stderr, "--trace-out/--metrics-out only apply to `test`\n");
    return Usage();
  }
  if (command == "corpus" && args.size() == 1) {
    return CmdCorpus(args[0]);
  }
  if (command == "assemble" && args.size() == 2) {
    return CmdAssemble(args[0], args[1]);
  }
  if (command == "disasm" && args.size() == 1) {
    return CmdDisasm(args[0]);
  }
  if (command == "test" && (args.size() == 1 || args.size() == 2)) {
    return CmdTest(args[0], args.size() == 2 ? args[1] : "", trace_out, metrics_out);
  }
  if (command == "replay" && args.size() == 2) {
    return CmdReplay(args[0], args[1]);
  }
  return Usage();
}
