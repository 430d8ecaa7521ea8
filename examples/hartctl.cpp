// hartctl — administration tool for a file-backed HART persistent-memory
// image: verify integrity (fsck), print statistics, dump contents, and
// force a recovery pass.
//
//   $ ./examples/hartctl <file> verify          # offline integrity check
//   $ ./examples/hartctl <file> stats           # allocator + tree stats
//   $ ./examples/hartctl <file> dump [lo] [n]   # ordered key dump
//   $ ./examples/hartctl <file> recover [T]     # recover (T threads)
#include <iostream>
#include <string>

#include "common/stopwatch.h"
#include "common/table.h"
#include "epalloc/chunk.h"
#include "hart/hart.h"
#include "hart/verify.h"

namespace {

int usage(const char* prog) {
  std::cerr << "usage: " << prog
            << " <file> verify | stats | dump [lo] [n] | recover [threads]\n";
  return 2;
}

const char* type_name(int t) {
  switch (t) {
    case 0: return "leaf";
    case 1: return "value8";
    case 2: return "value16";
    case 3: return "value32";
    default: return "value64";
  }
}

int run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string file = argv[1];
  const std::string cmd = argv[2];

  hart::pmem::Arena::Options opts;
  opts.size = 256 << 20;
  opts.file_path = file;
  hart::pmem::Arena arena(opts);
  if (!arena.reopened()) {
    std::cerr << "warning: " << file
              << " was not an existing arena (fresh image created)\n";
  }

  if (cmd == "verify") {
    // Offline: no Hart instance, the raw image is inspected as-is. It may
    // be straight from a crash, so orphaned values are only a warning
    // here; `recover` verifies strictly after recovery.
    const auto report = hart::core::verify_hart_image(
        arena, hart::core::ImageState::kCrashed);
    std::cout << report.summary() << "\n";
    for (const auto& issue : report.issues)
      std::cout << (issue.severity ==
                            hart::core::VerifyIssue::Severity::kError
                        ? "  ERROR: "
                        : "  warn:  ")
                << issue.what << "\n";
    return report.ok() ? 0 : 1;
  }

  if (cmd == "stats") {
    hart::core::Hart index(arena);  // recovers
    const auto mem = index.memory_usage();
    hart::common::Table t({"metric", "value"});
    t.add_row({"records", std::to_string(index.size())});
    t.add_row({"ARTs (hash partitions)",
               std::to_string(index.partition_count())});
    t.add_row({"hash key length (kh)",
               std::to_string(index.hash_key_len())});
    t.add_row({"PM bytes", std::to_string(mem.pm_bytes)});
    t.add_row({"DRAM bytes", std::to_string(mem.dram_bytes)});
    for (int ty = 0; ty < hart::epalloc::kNumObjTypes; ++ty) {
      const auto ot = static_cast<hart::epalloc::ObjType>(ty);
      t.add_row({std::string(type_name(ty)) + " chunks",
                 std::to_string(index.allocator().chunk_count(ot))});
      t.add_row({std::string(type_name(ty)) + " live objects",
                 std::to_string(index.allocator().live_objects(ot))});
    }
    t.print();
    return 0;
  }

  if (cmd == "dump") {
    hart::core::Hart index(arena);
    const std::string lo = argc > 3 ? argv[3] : "";
    const size_t limit = argc > 4 ? std::stoul(argv[4]) : index.size();
    if (index.size() == 0) return 0;
    std::vector<std::pair<std::string, std::string>> out;
    if (lo.empty()) {
      // Find the first key via a cursor starting from the lowest byte.
      hart::core::HartCursor cur(index, std::string(1, '\x01'), 512);
      size_t n = 0;
      for (; cur.valid() && n < limit; cur.next(), ++n)
        std::cout << cur.key() << " = " << cur.value() << "\n";
    } else {
      index.range(lo, limit, &out);
      for (const auto& [k, v] : out) std::cout << k << " = " << v << "\n";
    }
    return 0;
  }

  if (cmd == "recover") {
    const unsigned threads = argc > 3
                                 ? static_cast<unsigned>(std::stoul(argv[3]))
                                 : 1;
    hart::common::Stopwatch sw;
    hart::core::Hart index(arena);
    const double first = sw.seconds();
    sw.reset();
    index.recover(threads);
    std::cout << "recovered " << index.size() << " records; constructor "
              << first << " s, explicit recover(" << threads << ") "
              << sw.seconds() << " s\n";
    const auto report = hart::core::verify_hart_image(arena);
    std::cout << report.summary() << "\n";
    return report.ok() ? 0 : 1;
  }

  return usage(argv[0]);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const hart::core::FormatError& e) {
    // An image written by an incompatible build is refused untouched.
    std::cerr << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
}
