// Efifo is header-only; this translation unit exists so the module has an
// object file (and a place for future non-inline logic).
#include "hyperconnect/efifo.hpp"
