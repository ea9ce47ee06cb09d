#include "common/log.hpp"

#include <iostream>

namespace axihc::detail {

void write_log_line(const std::string& line) { std::cerr << line << '\n'; }

}  // namespace axihc::detail
