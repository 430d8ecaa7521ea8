// Shared test helper: materializes the checked-in HART arena image
// tests/data/legacy_arena_200keys.txt, written in the update-log format
// (format 0). Suites that use it define HART_TEST_DATA_DIR.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hart::testutil {

/// Writes the image to `path`; returns the arena size (1 MiB).
inline size_t write_legacy_image(const std::string& path) {
  std::ifstream in(std::string(HART_TEST_DATA_DIR) +
                   "/legacy_arena_200keys.txt");
  EXPECT_TRUE(in.good()) << "missing golden arena image";
  std::vector<char> img;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string first;
    std::string bytes;
    ls >> first >> bytes;
    if (first == "size") {
      img.assign(std::stoull(bytes), 0);
      continue;
    }
    const size_t off = std::stoull(first, nullptr, 16);
    EXPECT_LE(off + bytes.size() / 2, img.size()) << line;
    for (size_t b = 0; b + 1 < bytes.size(); b += 2)
      img[off + b / 2] =
          static_cast<char>(std::stoul(bytes.substr(b, 2), nullptr, 16));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(img.data(), static_cast<std::streamsize>(img.size()));
  return img.size();
}

}  // namespace hart::testutil
