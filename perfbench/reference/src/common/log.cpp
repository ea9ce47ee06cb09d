#include "common/log.hpp"

#include <iostream>

namespace axihc {

LogLevel Logger::level_ = LogLevel::kWarn;

void Logger::set_level(LogLevel level) { level_ = level; }

LogLevel Logger::level() { return level_; }

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  std::cerr << message << '\n';
}

}  // namespace axihc
