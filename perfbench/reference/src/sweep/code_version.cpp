#include "sweep/code_version.hpp"

#include <cstdlib>

namespace axihc {

// Defined by the generated code_version_gen.cpp in the build tree
// (cmake/gen_code_version.cmake).
const char* code_version_baked();

std::string code_version() {
  if (const char* env = std::getenv("AXIHC_CODE_VERSION")) {
    if (*env != '\0') return env;
  }
  return code_version_baked();
}

}  // namespace axihc
