#include "axi/bridge.hpp"

#include <utility>

#include "common/check.hpp"

namespace axihc {

AxiBridge::AxiBridge(std::string name, AxiLink& upstream, AxiLink& downstream)
    : Component(std::move(name)), up_(upstream), down_(downstream) {
  // A register slice performs no width conversion, and a narrower
  // downstream ID would alias upstream transactions.
  AXIHC_CHECK_MSG(up_.data_bits() == down_.data_bits(),
                  this->name() << " joins a " << up_.data_bits()
                               << "-bit link to a " << down_.data_bits()
                               << "-bit link");
  AXIHC_CHECK_MSG(up_.id_bits() <= down_.id_bits(),
                  this->name() << " narrows AxID from " << up_.id_bits()
                               << " to " << down_.id_bits() << " bits");
}

void AxiBridge::tick(Cycle) {
  if (up_.ar.can_pop() && down_.ar.can_push()) down_.ar.push(up_.ar.pop());
  if (up_.aw.can_pop() && down_.aw.can_push()) down_.aw.push(up_.aw.pop());
  if (up_.w.can_pop() && down_.w.can_push()) down_.w.push(up_.w.pop());
  if (down_.r.can_pop() && up_.r.can_push()) up_.r.push(down_.r.pop());
  if (down_.b.can_pop() && up_.b.can_push()) up_.b.push(down_.b.pop());
}

}  // namespace axihc
