// bench_stopmachine_latency: the §2/§5.2 claim that applying an update
// interrupts normal operation for about 0.7 ms, "far shorter than any
// reboot".
//
// Measures, over fixed iteration counts, (a) a bare stop_machine
// rendezvous while 0-4 virtual CPUs run the stress workload and (b) the
// stopped window of apply/undo cycles (safety check + hook + splice), both
// read from the registry series the instrumented code publishes, against
// (c) a reboot: relink objects compiled before timing starts, boot, and
// run kernel_init, with no image cache. Exits 1 on any error, or unless
// the reboot takes at least 100x the mean stop window.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "base/metrics.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kvm/machine.h"

namespace {

constexpr int kStops = 2'000;
constexpr int kCycles = 200;
constexpr int kReboots = 20;

// Runs `fn` and returns the mean of what it added to histogram `name`.
template <typename Fn>
ks::Result<double> MeanAdded(const char* name, Fn fn) {
  ks::Histogram& hist = ks::Metrics().GetHistogram(name);
  uint64_t count = hist.count();
  uint64_t sum = hist.sum();
  KS_RETURN_IF_ERROR(fn());
  count = hist.count() - count;
  return count == 0 ? 0.0 : static_cast<double>(hist.sum() - sum) / count;
}

// A corpus kernel with endless background load on `cpus` vCPUs.
ks::Result<std::unique_ptr<kvm::Machine>> BootBusyKernel(int cpus) {
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      corpus::BootKernel());
  for (int i = 0; i < 4; ++i) {
    KS_RETURN_IF_ERROR(
        machine->SpawnNamed("stress_main", 1'000'000).status());
  }
  if (cpus > 0) {
    machine->StartCpus(cpus);
  }
  return machine;
}

// Relinks compiled kernel objects, boots them and runs kernel_init: what
// corpus::BootKernel does, without its linked-image cache.
ks::Status Reboot(std::vector<kelf::ObjectFile> objects) {
  kvm::MachineConfig config;
  config.memory_bytes = 24u << 20;  // corpus::BootKernel's size
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      kvm::Machine::Boot(std::move(objects), config));
  KS_ASSIGN_OR_RETURN(uint32_t init, machine->GlobalSymbol("kernel_init"));
  return machine->CallFunction(init, 0).status();
}

ks::Status Run() {
  std::printf("=== §2/§5.2 stop_machine pause vs reboot ===\n\n");
  for (int cpus : {0, 1, 2, 4}) {
    KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                        BootBusyKernel(cpus));
    ks::Result<double> ns = MeanAdded("kvm.stop_rendezvous_ns", [&] {
      for (int i = 0; i < kStops; ++i) {
        KS_RETURN_IF_ERROR(machine->StopMachine(
            [](kvm::Machine&) { return ks::OkStatus(); }));
      }
      return ks::OkStatus();
    });
    machine->StopCpus();
    KS_RETURN_IF_ERROR(ns.status());
    std::printf("rendezvous, %d busy vCPU(s)         %9.3f µs\n", cpus,
                *ns / 1e3);
  }

  const std::string cve = "CVE-2006-2451";
  const std::vector<corpus::Vulnerability>& vulns = corpus::Vulnerabilities();
  auto vuln = std::find_if(vulns.begin(), vulns.end(),
                           [&](const auto& v) { return v.cve == cve; });
  if (vuln == vulns.end()) {
    return ks::NotFound(cve);
  }
  KS_ASSIGN_OR_RETURN(std::string patch, corpus::PatchFor(*vuln));
  ksplice::CreateOptions create_options;
  create_options.compile = corpus::RunBuildOptions();
  create_options.id = cve;
  KS_ASSIGN_OR_RETURN(
      ksplice::CreateResult created,
      ksplice::CreateUpdate(corpus::KernelSource(), patch, create_options));
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      BootBusyKernel(0));
  ksplice::KspliceCore core(machine.get());
  KS_ASSIGN_OR_RETURN(double pause_ns,
                      MeanAdded("ksplice.stop_pause_ns", [&] {
                        for (int i = 0; i < kCycles; ++i) {
                          KS_RETURN_IF_ERROR(
                              core.Apply(created.package).status());
                          KS_RETURN_IF_ERROR(core.Undo(cve).status());
                        }
                        return ks::OkStatus();
                      }));
  std::printf("stop window (check + hook + splice) %9.3f µs\n",
              pause_ns / 1e3);

  // Only compilation happens before the clock starts.
  KS_ASSIGN_OR_RETURN(
      std::vector<kelf::ObjectFile> objects,
      kcc::BuildTree(corpus::KernelSource(), corpus::RunBuildOptions()));
  std::chrono::duration<double, std::nano> reboots{0};
  for (int i = 0; i < kReboots; ++i) {
    std::vector<kelf::ObjectFile> copy = objects;
    auto start = std::chrono::steady_clock::now();
    KS_RETURN_IF_ERROR(Reboot(std::move(copy)));
    reboots += std::chrono::steady_clock::now() - start;
  }
  double reboot_ns = reboots.count() / kReboots;
  std::printf("reboot (relink + boot + init)       %9.3f ms\n",
              reboot_ns / 1e6);
  double ratio = reboot_ns / pause_ns;
  std::printf("\nreboot / stop window: %.0fx\n", ratio);
  if (!(ratio >= 100)) {
    return ks::FailedPrecondition("reboot is not 100x the stop window");
  }
  return ks::OkStatus();
}

}  // namespace

int main() {
  ks::Status status = Run();
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
