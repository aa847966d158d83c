/* A heap census to LD_PRELOAD into a single-threaded x86-64 process.
 *
 * malloc, calloc, realloc, posix_memalign and free are wrapped: each
 * block is charged, by its requested size, to the frame-pointer chain of
 * the call that allocated it (up to MAX_FRAMES return addresses), and the
 * table keeps, per chain, the bytes and blocks live and the blocks
 * allocated since start (a realloc counts as one, as a counting
 * GlobalAlloc counts it). Whenever the live total passes the level of
 * the last snapshot by 1/256, the table's live column is copied aside.
 * Copying stops once the live total first falls below a quarter of a
 * snapshot of at least FREEZE_FLOOR (256 KiB: start-up's churn stays
 * below it, and a run that peaks under 1 MiB, bank1_readmostly's or
 * chaos_sweep400's, still passes it). A quarter, not a half: within its
 * first repetition, bank1_failover's live total falls below half of an
 * earlier snapshot (at a half, seed 1 froze at 1.11 of its 1.46 MiB),
 * and chaos_sweep400's does at the end of each of its worlds, while the
 * repetition's schedules live on. A benchmark builds
 * a world, runs it and drops it, so the copy left is the first
 * repetition's peak, to within 0.4 %; the repo
 * benchmark's first repetition is its counted warm-up. The allocation
 * count runs on to the end. At exit the census goes to $HEAP_OUT
 * (default heap.raw) as u64 words: the live total at the snapshot, then
 * per chain with live bytes at the snapshot or any allocation its bytes
 * and blocks at the snapshot, its allocations, a count n and n return
 * addresses. /proc/self/maps is copied to $HEAP_OUT.maps. `resolve.py
 * --heap` turns the two files into MiB live at the peak by allocation
 * site, `resolve.py --heap --allocs` into blocks allocated by site.
 *
 *   cc -O2 -fno-omit-frame-pointer -shared -fPIC -o heap.so heap.c -ldl
 *   LD_PRELOAD=$PWD/heap.so HEAP_OUT=run.heap ./binary args...
 *
 * Build the profiled binary with RUSTFLAGS="-C force-frame-pointers=yes"
 * so that its frames chain; run the binary itself, not `cargo run`, or
 * cargo is counted too. Sizes are the ones asked for, as a counting
 * GlobalAlloc sees them, not malloc's chunk sizes. Blocks from the
 * allocation calls not wrapped here (memalign, aligned_alloc, valloc) are
 * not counted, and free hands them on untouched. Bookkeeping lives in
 * mmap'd tables, so the census allocates nothing through malloc.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#define MAX_FRAMES 32
#define MAX_SITES (1 << 18)
#define SITE_SLOTS (1 << 19)
#define ARENA_BYTES (1 << 16)
#define FREEZE_FLOOR (1 << 18)

typedef struct {
    uint64_t hash, live, blocks, snap_live, snap_blocks, allocs;
    uint32_t n;
    uint64_t frames[MAX_FRAMES];
} Site;

typedef struct {
    uintptr_t ptr; /* 0 = empty slot */
    uint64_t size;
    uint32_t site;
} Block;

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static int (*real_posix_memalign)(void **, size_t, size_t);
static void (*real_free)(void *);

/* dlsym itself may call calloc: serve it from a bump arena */
static _Alignas(16) char arena[ARENA_BYTES];
static size_t arena_used;
static int resolving, active, frozen;

static Site *sites;
static uint32_t nsites;
static uint32_t *site_slots; /* site index + 1; 0 = empty */
static Block *blocks;
static size_t block_cap, nblocks;
static uint64_t live, snap_level, snap_total;
static uintptr_t stack_hi;
static char out_path[4096];

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void *arena_alloc(size_t size) {
    size_t at = (arena_used + 15) & ~(size_t)15;
    if (at + size > ARENA_BYTES) return NULL;
    arena_used = at + size;
    return arena + at;
}

static int in_arena(void *p) { return (char *)p >= arena && (char *)p < arena + ARENA_BYTES; }

/* the top of the main thread's stack, from /proc/self/maps, read without malloc */
static uintptr_t find_stack_hi(void) {
    static char buf[1 << 16];
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0) return 0;
    size_t len = 0;
    ssize_t got;
    while (len + 1 < sizeof buf && (got = read(fd, buf + len, sizeof buf - 1 - len)) > 0) len += got;
    close(fd);
    buf[len] = 0;
    char *line = strstr(buf, "[stack]");
    if (!line) return 0;
    while (line > buf && line[-1] != '\n') line--;
    unsigned long lo, hi;
    return sscanf(line, "%lx-%lx", &lo, &hi) == 2 ? hi : 0;
}

static void init(void) {
    if (real_malloc || resolving) return;
    resolving = 1;
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    real_free = dlsym(RTLD_NEXT, "free");
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    resolving = 0;
    sites = map(sizeof(Site) * MAX_SITES);
    site_slots = map(sizeof(uint32_t) * SITE_SLOTS);
    block_cap = 1 << 16;
    blocks = map(sizeof(Block) * block_cap);
    stack_hi = find_stack_hi();
    active = sites && site_slots && blocks && stack_hi;
}

static inline uint64_t mix(uint64_t h, uint64_t x) { return (h ^ x) * 0x100000001b3ull; }

static inline size_t block_slot(uintptr_t p) {
    return (size_t)((p * 0x9e3779b97f4a7c15ull) >> (64 - __builtin_ctzll(block_cap)));
}

/* index of the site for this call chain (site 0 takes any overflow) */
static uint32_t site_of(uintptr_t fp) {
    uint64_t frames[MAX_FRAMES], h = 0xcbf29ce484222325ull;
    uint32_t n = 0;
    uintptr_t floor = fp;
    /* follow saved rbp while it stays on the stack and moves up it */
    while (n < MAX_FRAMES && fp >= floor && fp + 16 <= stack_hi && fp % 8 == 0) {
        frames[n++] = ((uint64_t *)fp)[1];
        h = mix(h, frames[n - 1]);
        uintptr_t next = ((uint64_t *)fp)[0];
        if (next <= fp) break;
        fp = next;
    }
    for (size_t i = h & (SITE_SLOTS - 1);; i = (i + 1) & (SITE_SLOTS - 1)) {
        uint32_t s = site_slots[i];
        if (s == 0) {
            if (nsites + 1 >= MAX_SITES) return 0;
            Site *site = &sites[++nsites];
            site->hash = h, site->n = n;
            memcpy(site->frames, frames, n * sizeof frames[0]);
            site_slots[i] = nsites + 1;
            return nsites;
        }
        if (sites[s - 1].hash == h && sites[s - 1].n == n && !memcmp(sites[s - 1].frames, frames, n * sizeof frames[0]))
            return s - 1;
    }
}

static void snapshot(void) {
    for (uint32_t i = 0; i <= nsites; i++) sites[i].snap_live = sites[i].live, sites[i].snap_blocks = sites[i].blocks;
    snap_total = live;
    snap_level = live + live / 256;
}

static void untrack(void *p);

static void grow_blocks(void) {
    Block *old = blocks;
    size_t old_cap = block_cap;
    Block *fresh = map(sizeof(Block) * old_cap * 2);
    if (!fresh) {
        active = 0;
        return;
    }
    blocks = fresh, block_cap = old_cap * 2;
    for (size_t i = 0; i < old_cap; i++) {
        if (!old[i].ptr) continue;
        size_t j = block_slot(old[i].ptr);
        while (blocks[j].ptr) j = (j + 1) & (block_cap - 1);
        blocks[j] = old[i];
    }
    munmap(old, sizeof(Block) * old_cap);
}

static void track(void *p, size_t size, uintptr_t fp) {
    if (!active || !p) return;
    untrack(p); /* a block freed behind our back, its address reused */
    if (2 * (nblocks + 1) > block_cap) grow_blocks();
    if (!active) return;
    uint32_t s = site_of(fp);
    size_t i = block_slot((uintptr_t)p);
    while (blocks[i].ptr) i = (i + 1) & (block_cap - 1);
    blocks[i] = (Block){(uintptr_t)p, size, s};
    nblocks++;
    sites[s].live += size, sites[s].blocks++, sites[s].allocs++;
    live += size;
    if (live > snap_level && !frozen) snapshot();
}

static void untrack(void *p) {
    if (!active || !p) return;
    size_t i = block_slot((uintptr_t)p);
    while (blocks[i].ptr && blocks[i].ptr != (uintptr_t)p) i = (i + 1) & (block_cap - 1);
    if (!blocks[i].ptr) return;
    Site *site = &sites[blocks[i].site];
    site->live -= blocks[i].size, site->blocks--;
    live -= blocks[i].size;
    nblocks--;
    if (snap_total >= FREEZE_FLOOR && live < snap_total / 4) frozen = 1;
    /* backward-shift deletion keeps every probe run unbroken */
    for (size_t j = (i + 1) & (block_cap - 1); blocks[j].ptr; j = (j + 1) & (block_cap - 1)) {
        size_t home = block_slot(blocks[j].ptr);
        if (((j - home) & (block_cap - 1)) >= ((j - i) & (block_cap - 1))) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i].ptr = 0;
}

#define CALLER_FP ((uintptr_t)__builtin_frame_address(0))

void *malloc(size_t size) {
    init();
    if (!real_malloc) return arena_alloc(size);
    void *p = real_malloc(size);
    track(p, size, CALLER_FP);
    return p;
}

void *calloc(size_t n, size_t size) {
    init();
    if (!real_calloc) {
        void *p = n && size > ARENA_BYTES / n ? NULL : arena_alloc(n * size);
        return p ? memset(p, 0, n * size) : NULL;
    }
    void *p = real_calloc(n, size);
    track(p, n * size, CALLER_FP);
    return p;
}

void *realloc(void *old, size_t size) {
    init();
    if (in_arena(old) || !real_realloc) {
        void *p = malloc(size);
        /* an arena block's size is not kept: copy up to the arena's end */
        size_t room = old ? (size_t)(arena + ARENA_BYTES - (char *)old) : 0;
        if (p && old) memcpy(p, old, size < room ? size : room);
        return p;
    }
    void *p = real_realloc(old, size);
    if (p || size == 0) untrack(old);
    track(p, size, CALLER_FP);
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    init();
    if (!real_posix_memalign) return ENOMEM;
    int err = real_posix_memalign(out, align, size);
    if (err == 0) track(*out, size, CALLER_FP);
    return err;
}

void free(void *p) {
    if (!p || in_arena(p)) return;
    init();
    untrack(p);
    real_free(p);
}

static void put(int fd, const uint64_t *words, size_t n) {
    if (write(fd, words, n * sizeof words[0]) < 0) return;
}

__attribute__((constructor)) static void start(void) {
    init();
    const char *path = getenv("HEAP_OUT");
    snprintf(out_path, sizeof out_path, "%s", path ? path : "heap.raw");
}

__attribute__((destructor)) static void stop(void) {
    if (!active) return;
    active = 0;
    int fd = open(out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return;
    put(fd, &snap_total, 1);
    for (uint32_t i = 0; i <= nsites; i++) {
        Site *s = &sites[i];
        if (s->snap_live == 0 && s->allocs == 0) continue;
        uint64_t head[4] = {s->snap_live, s->snap_blocks, s->allocs, s->n};
        put(fd, head, 4);
        put(fd, s->frames, s->n);
    }
    close(fd);
    char maps_path[4200];
    snprintf(maps_path, sizeof maps_path, "%s.maps", out_path);
    FILE *in = fopen("/proc/self/maps", "r"), *out = fopen(maps_path, "w");
    if (!in || !out) return;
    char line[4096];
    while (fgets(line, sizeof line, in)) fputs(line, out);
    fclose(in);
    fclose(out);
}
