//! D008 fixture: shared mutable state captured inside parallel pool
//! closures. Iterator `map` must stay untouched; `// det: shared-ok`
//! escapes an audited order-free site.

fn races(pool: &ScopedPool, h: &std::collections::HashMap<u32, u32>) {
    let hits = AtomicU32::new(0);
    pool.run(|i| {
        hits.fetch_add(1, Ordering::Relaxed);
        // Per-item local, but the rule over-approximates by type name.
        let cell = RefCell::new(i);
        // det: ordered — D002 escape only; D008 must still fire below
        for k in h.keys() {
            let _ = (k, &cell);
        }
    });
}

fn grids(jobs: &[u32]) {
    let total = Mutex::new(0u32);
    ScopedPool::new(2).map_grid(jobs, 3, |_, _, _| {
        *total.lock().unwrap() += 1;
    });
}

fn fine(xs: &[u32]) -> Vec<u32> {
    // Iterator `map` is not a pool seam: no findings here.
    xs.iter().map(|x| x + 1).collect()
}

fn excused(pool: &ScopedPool) {
    let hits = AtomicU32::new(0);
    pool.run(|_| {
        // det: shared-ok — commutative counter; the caller asserts a total
        hits.fetch_add(1, Ordering::Relaxed);
    });
}
