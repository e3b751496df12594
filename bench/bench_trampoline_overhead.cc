// bench_trampoline_overhead: the §2 claim that "calls to the replaced
// functions will take a few cycles longer because of the inserted jump
// instructions" and that replacement code costs a small amount of memory.
//
// Counts the virtual instructions a call-heavy loop retires before and
// after hot-patching its callee, from the same state (`sink` is zeroed
// before every run, so both take the same branches), and the module-arena
// bytes the update occupies with and without its helper (§5.1). Exits 1
// unless each patched call costs exactly one more instruction (the jmp32
// trampoline), and unless UnloadHelper frees the helper's arena bytes.

#include <cstdio>
#include <iterator>
#include <memory>

#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kvm/machine.h"

namespace {

const char* kKernel = R"(
int sink = 0;
int work_item(int x) {
  sink = sink + x;
  if (sink > 1000000) {
    sink = 0;
  }
  sink = sink ^ x;
  sink = sink + 3;
  sink = sink * 2;
  sink = sink - x;
  if (sink < 0) {
    sink = 1;
  }
  return sink;
}
void hot_loop(int n) {
  int i = 0;
  while (i < n) {
    work_item(i);
    i++;
  }
  record(700, sink);
}
)";

constexpr int kCalls[] = {1, 10, 10'000};

// Virtual instructions retired by hot_loop(n), starting from sink == 0.
ks::Result<uint64_t> TicksPerLoop(kvm::Machine& machine, int n) {
  KS_ASSIGN_OR_RETURN(uint32_t sink, machine.GlobalSymbol("sink"));
  KS_RETURN_IF_ERROR(machine.WriteWord(sink, 0));
  uint64_t before = machine.Ticks();
  KS_RETURN_IF_ERROR(
      machine.SpawnNamed("hot_loop", static_cast<uint32_t>(n)).status());
  KS_RETURN_IF_ERROR(machine.RunToCompletion());
  return machine.Ticks() - before;
}

ks::Status Run() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  kdiff::SourceTree tree;
  tree.Write("loop.kc", kKernel);
  KS_ASSIGN_OR_RETURN(std::vector<kelf::ObjectFile> objects,
                      kcc::BuildTree(tree, options));
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      kvm::Machine::Boot(std::move(objects), {}));
  uint64_t unpatched[std::size(kCalls)];
  for (size_t i = 0; i < std::size(kCalls); ++i) {
    KS_ASSIGN_OR_RETURN(unpatched[i], TicksPerLoop(*machine, kCalls[i]));
  }

  // Patch work_item with a semantics-preserving tweak that defeats byte
  // equality: reorder the arithmetic.
  std::string contents = kKernel;
  const std::string from = "sink = sink + 3;\n  sink = sink * 2;";
  contents.replace(contents.find(from), from.size(),
                   "sink = sink * 2;\n  sink = sink + 6;");
  kdiff::SourceTree post;
  post.Write("loop.kc", contents);
  ksplice::CreateOptions create_options;
  create_options.compile = options;
  create_options.id = "tramp-bench";
  KS_ASSIGN_OR_RETURN(ksplice::CreateResult created,
                      ksplice::CreateUpdate(tree,
                                            kdiff::MakeUnifiedDiff(tree, post),
                                            create_options));
  ksplice::KspliceCore core(machine.get());
  uint32_t arena_before = machine->ModuleArenaBytesInUse();
  ksplice::ApplyOptions apply_options;
  apply_options.keep_helper = true;
  KS_RETURN_IF_ERROR(core.Apply(created.package, apply_options).status());
  uint32_t with_helper = machine->ModuleArenaBytesInUse() - arena_before;
  KS_RETURN_IF_ERROR(core.UnloadHelper("tramp-bench"));
  uint32_t primary = machine->ModuleArenaBytesInUse() - arena_before;

  std::printf("=== §2 trampoline overhead: hot_loop(n) ===\n\n");
  std::printf("%8s %12s %12s %8s %9s\n", "calls", "unpatched", "patched",
              "delta", "per call");
  bool one_per_call = true;
  for (size_t i = 0; i < std::size(kCalls); ++i) {
    KS_ASSIGN_OR_RETURN(uint64_t patched, TicksPerLoop(*machine, kCalls[i]));
    int64_t delta = static_cast<int64_t>(patched - unpatched[i]);
    std::printf("%8d %12llu %12llu %+8lld %+9.3f\n", kCalls[i],
                static_cast<unsigned long long>(unpatched[i]),
                static_cast<unsigned long long>(patched),
                static_cast<long long>(delta),
                static_cast<double>(delta) / kCalls[i]);
    one_per_call = one_per_call && delta == kCalls[i];
  }
  std::printf("\narena bytes with helper : %u\n", with_helper);
  std::printf("arena bytes primary     : %u\n", primary);
  if (!one_per_call) {
    return ks::FailedPrecondition("patched calls cost other than one jmp32");
  }
  if (primary >= with_helper) {
    return ks::FailedPrecondition("UnloadHelper freed no arena bytes");
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
