#include "axi/bridge.hpp"

#include <utility>

namespace axihc {

AxiBridge::AxiBridge(std::string name, AxiLink& upstream, AxiLink& downstream)
    : Component(std::move(name)), up_(upstream), down_(downstream) {
  up_.attach_endpoint(*this);
  down_.attach_endpoint(*this);
}

void AxiBridge::tick(Cycle) {
  if (up_.ar.can_pop() && down_.ar.can_push()) down_.ar.push(up_.ar.pop());
  if (up_.aw.can_pop() && down_.aw.can_push()) down_.aw.push(up_.aw.pop());
  if (up_.w.can_pop() && down_.w.can_push()) down_.w.push(up_.w.pop());
  if (down_.r.can_pop() && up_.r.can_push()) up_.r.push(down_.r.pop());
  if (down_.b.can_pop() && up_.b.can_push()) up_.b.push(down_.b.pop());
}

}  // namespace axihc
