// hartctl — administration tool for a file-backed HART persistent-memory
// image: verify integrity (fsck), print statistics, dump contents, and
// force a recovery pass.
//
//   $ ./examples/hartctl <file> verify          # offline integrity check
//   $ ./examples/hartctl <file> stats           # allocator + tree stats
//   $ ./examples/hartctl <file> dump [lo] [n]   # ordered key dump
//   $ ./examples/hartctl <file> recover [T]     # recover (T threads)
#include <filesystem>
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
  // A relative path names a file in the working directory (the library
  // alone would look under HART_ARENA_DIR or the temp directory).
  const std::string file = std::filesystem::absolute(argv[1]).string();
  const std::string cmd = argv[2];

  // Every command inspects an existing image, opened at the size it was
  // created with; a missing file or one that holds no arena is refused,
  // never created or initialized.
  hart::pmem::Arena::Options opts;
  opts.file_path = file;
  opts.size = hart::pmem::Arena::image_size(file);
  if (opts.size == 0) {
    std::cerr << file << ": no arena image there\n";
    return 1;
  }
  hart::pmem::Arena arena(opts);

  if (cmd == "verify") {
    // Offline: no Hart instance, the raw image is inspected as-is. A
    // crashed image needs no allowance: a value is live exactly when a
    // live leaf names it.
    const auto report = hart::core::verify_hart_image(arena);
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
    t.add_row({"hash directory slots",
               std::to_string(index.directory_capacity())});
    t.add_row({"hash key length (kh)",
               std::to_string(index.hash_key_len())});
    t.add_row({"PM bytes", std::to_string(mem.pm_bytes)});
    t.add_row({"DRAM bytes", std::to_string(mem.dram_bytes)});
    t.add_row({"image format",
               std::to_string(arena.root<hart::core::HartRoot>()->format)});
    for (int ty = 0; ty < hart::epalloc::kNumObjTypes; ++ty) {
      const auto ot = static_cast<hart::epalloc::ObjType>(ty);
      const auto& g = index.allocator().geom(ot);
      t.add_row({std::string(type_name(ty)) + " geometry",
                 "object " + std::to_string(g.obj_size) + " B, first at " +
                     std::to_string(g.object_off(0, 0)) + " B, chunk " +
                     std::to_string(g.chunk_bytes) + " B"});
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
  } catch (const std::runtime_error& e) {
    std::cerr << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
}
