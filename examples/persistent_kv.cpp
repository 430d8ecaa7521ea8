// A durable key-value store CLI on a file-backed arena: data survives
// process restarts, exactly like a PM-resident index would survive a
// reboot. Each invocation re-opens the file and runs HART's recovery.
//
//   $ ./examples/persistent_kv /tmp/shop.pm put apples 12
//   $ ./examples/persistent_kv /tmp/shop.pm put pears 7
//   $ ./examples/persistent_kv /tmp/shop.pm get apples
//   12
//   $ ./examples/persistent_kv /tmp/shop.pm scan a 10
//   apples = 12
//   pears = 7
//   $ ./examples/persistent_kv /tmp/shop.pm del apples
//   $ ./examples/persistent_kv /tmp/shop.pm stats
#include <filesystem>
#include <iostream>
#include <string>

#include "hart/hart.h"

namespace {

int usage(const char* prog) {
  std::cerr << "usage: " << prog
            << " <file> put <key> <value> | get <key> | del <key> | "
               "scan <lo> <n> | stats\n"
               "keys: 1..24 bytes (no NUL); values: 1..64 bytes\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  // A relative path names a file in the working directory (the library
  // alone would place it under HART_ARENA_DIR or the temp directory).
  const std::string file = std::filesystem::absolute(argv[1]).string();
  const std::string cmd = argv[2];

  // An existing image opens at the size it was created with; a new one is
  // sized by HART_ARENA_MB (default 256 MiB).
  hart::pmem::Arena::Options opts;
  opts.file_path = file;
  opts.size = hart::pmem::Arena::image_size(file);  // 0 = HART_ARENA_MB
  hart::pmem::Arena arena(opts);
  hart::core::Hart index(arena);  // re-opens + recovers if the file exists

  try {
    if (cmd == "put" && argc == 5) {
      index.insert(argv[3], argv[4]);
      return 0;
    }
    if (cmd == "get" && argc == 4) {
      std::string v;
      if (!index.search(argv[3], &v).ok()) {
        std::cerr << "not found\n";
        return 1;
      }
      std::cout << v << "\n";
      return 0;
    }
    if (cmd == "del" && argc == 4) {
      if (!index.remove(argv[3]).ok()) {
        std::cerr << "not found\n";
        return 1;
      }
      return 0;
    }
    if (cmd == "scan" && argc == 5) {
      std::vector<std::pair<std::string, std::string>> out;
      index.range(argv[3], std::stoul(argv[4]), &out);
      for (const auto& [k, v] : out) std::cout << k << " = " << v << "\n";
      return 0;
    }
    if (cmd == "stats" && argc == 3) {
      const auto mem = index.memory_usage();
      std::cout << "records:     " << index.size() << "\n"
                << "ARTs:        " << index.partition_count()
                << " (directory slots: " << index.directory_capacity()
                << ")\n"
                << "PM bytes:    " << mem.pm_bytes << "\n"
                << "DRAM bytes:  " << mem.dram_bytes << "\n"
                << "(re-opened:  " << (arena.reopened() ? "yes" : "no")
                << ")\n";
      return 0;
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
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
