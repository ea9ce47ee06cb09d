// Code-version digest for the sweep result cache.
//
// A cached measurement is only valid while the simulator that produced it
// is byte-for-byte the one that would reproduce it, so cache keys pair the
// config digest with a digest of the source tree. cmake/gen_code_version.cmake
// hashes every file under src/ and tools/ at build time and bakes the result
// into the binary (code_version_gen.cpp in the build tree); editing any
// source and rebuilding therefore invalidates every cache entry.
//
// The AXIHC_CODE_VERSION environment variable overrides the baked value —
// tests use it to exercise cache invalidation without rebuilding.
#pragma once

#include <string>

namespace axihc {

/// The effective code-version token (env override, else the baked digest).
[[nodiscard]] std::string code_version();

}  // namespace axihc
