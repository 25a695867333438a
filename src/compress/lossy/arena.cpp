#include "compress/lossy/arena.hpp"

namespace fedsz::lossy {

EncodeArena& EncodeArena::local() {
  static thread_local EncodeArena arena;
  return arena;
}

}  // namespace fedsz::lossy
