// AddressSanitizer poisoning for memory the simulator recycles itself.
//
// The event queue's slot arena, the message slabs and the coroutine-frame
// pool hand freed memory back out without going through malloc, so ASan
// would not see a use after free into them. Under ASan these macros mark a
// free region unaddressable until it is handed out again; in every other
// build they compile to nothing.
#pragma once

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CCSIM_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define CCSIM_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define CCSIM_POISON(addr, size) ((void)(addr), (void)(size))
#define CCSIM_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif
