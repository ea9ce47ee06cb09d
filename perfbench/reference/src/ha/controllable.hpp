// Interface of an externally-triggered hardware accelerator.
//
// §II of the paper: each HA is controlled by a SW-task on the PS, which
// programs it over an AXI control slave interface; the HA runs
// asynchronously and signals completion with an interrupt. HAs implementing
// this interface can be wrapped by a ps::HaControlSlave, which provides the
// memory-mapped control registers and the interrupt line.
#pragma once

namespace axihc {

class ControllableHa {
 public:
  virtual ~ControllableHa() = default;

  /// Kicks one acceleration job. Must only be called when !busy().
  virtual void start() = 0;

  /// True while a job is in progress.
  [[nodiscard]] virtual bool busy() const = 0;
};

}  // namespace axihc
