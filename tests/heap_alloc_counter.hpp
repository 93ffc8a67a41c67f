// Binary-wide replaceable allocation counter for the allocation-free tests.
//
// Include from exactly one translation unit per test binary: this header
// defines the replaceable global operator new/delete. They count and pass
// through to malloc/free, so every other test in the binary is unaffected.
// A test brackets a steady-state window with g_heap_allocs reads and
// asserts the code under test made zero trips to the allocator.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at call sites; with them
// inlined, GCC's -Wmismatched-new-delete pairs the exposed free() against
// `new` expressions and misfires (seen under -fsanitize=thread).
#if defined(__GNUC__)
#define HSW_TEST_NOINLINE __attribute__((noinline))
#else
#define HSW_TEST_NOINLINE
#endif

HSW_TEST_NOINLINE void* operator new(std::size_t size) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc{};
}

// The nothrow form too (std::get_temporary_buffer, behind stable_sort and
// inplace_merge, uses it): left to the runtime's version, it would pair
// with the free() above, which ASan reports as an alloc-dealloc mismatch.
HSW_TEST_NOINLINE void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

HSW_TEST_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
HSW_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
