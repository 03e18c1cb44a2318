//! thread-pool fixture: OS threads started outside `sim_model::parallel`,
//! a waived one, and calls that start no thread.

use std::thread;

fn fan_out(items: Vec<u64>) -> u64 {
    let handle = thread::spawn(|| 1);
    std::thread::scope(|s| {
        s.spawn(|| 2);
    });
    handle.join().map_or(0, |v| v)
}

fn named() {
    let _builder = std::thread::Builder::new();
}

fn waived() {
    thread::spawn(|| 3); // simlint: allow(thread-pool, "fixture: a watchdog that never touches results")
}

fn no_thread_started() {
    let _cores = std::thread::available_parallelism();
    thread::sleep(PAUSE);
}

#[cfg(test)]
mod tests {
    fn starts_a_test_thread() {
        std::thread::spawn(|| 4);
    }
}
