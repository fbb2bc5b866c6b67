//! Execution timelines: per-worker busy intervals and their rendering.
//!
//! A [`Timeline`] records which worker ran which task over which interval.
//! The simulated runtimes fill one in on request, giving the Gantt-style
//! view operators use to diagnose load imbalance (e.g. DryadLINQ's static
//! partitions leaving whole nodes idle while one node grinds on).

/// One task execution on one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskInterval {
    /// Flat worker index within the fleet.
    pub worker: usize,
    /// Task id.
    pub task: u64,
    pub start_s: f64,
    pub end_s: f64,
}

/// A recorded execution timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    intervals: Vec<TaskInterval>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline::default()
    }

    pub fn push(&mut self, worker: usize, task: u64, start_s: f64, end_s: f64) {
        debug_assert!(end_s >= start_s, "interval must not be negative");
        self.intervals.push(TaskInterval {
            worker,
            task,
            start_s,
            end_s,
        });
    }

    pub fn intervals(&self) -> &[TaskInterval] {
        &self.intervals
    }

    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Number of distinct workers that ran anything.
    pub fn n_workers(&self) -> usize {
        self.intervals
            .iter()
            .map(|i| i.worker)
            .max()
            .map(|w| w + 1)
            .unwrap_or(0)
    }

    /// End of the last interval.
    pub fn horizon_s(&self) -> f64 {
        self.intervals.iter().map(|i| i.end_s).fold(0.0, f64::max)
    }

    /// Total busy seconds of one worker.
    pub fn worker_busy_s(&self, worker: usize) -> f64 {
        self.intervals
            .iter()
            .filter(|i| i.worker == worker)
            .map(|i| i.end_s - i.start_s)
            .sum()
    }

    /// Mean utilization across `n_workers` over the full horizon.
    pub fn utilization(&self, n_workers: usize) -> f64 {
        let horizon = self.horizon_s();
        if horizon <= 0.0 || n_workers == 0 {
            return 0.0;
        }
        let busy: f64 = self.intervals.iter().map(|i| i.end_s - i.start_s).sum();
        busy / (horizon * n_workers as f64)
    }

    /// Render as an ASCII Gantt chart: one row per worker, `#` where busy.
    /// `width` columns span the horizon.
    pub fn render_ascii(&self, width: usize) -> String {
        let horizon = self.horizon_s();
        let n = self.n_workers();
        if horizon <= 0.0 || n == 0 || width == 0 {
            return String::from("(empty timeline)\n");
        }
        let mut rows = vec![vec![b' '; width]; n];
        for iv in &self.intervals {
            let lo = ((iv.start_s / horizon) * width as f64).floor() as usize;
            let hi = (((iv.end_s / horizon) * width as f64).ceil() as usize).min(width);
            for cell in &mut rows[iv.worker][lo.min(width.saturating_sub(1))..hi] {
                *cell = b'#';
            }
        }
        let mut out = String::with_capacity(n * (width + 12));
        for (w, row) in rows.iter().enumerate() {
            out.push_str(&format!("w{w:03} |{}|\n", String::from_utf8_lossy(row)));
        }
        out.push_str(&format!(
            "      0s{:>w$}\n",
            format!("{horizon:.0}s"),
            w = width - 2
        ));
        out
    }
}

/// A step function of fleet size over time — the companion trace to a
/// [`Timeline`] for *elastic* runs, where the number of billed instances
/// changes as the autoscaler launches and retires workers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTimeline {
    /// `(at_s, fleet_size_after)`, in non-decreasing time order.
    steps: Vec<(f64, u32)>,
}

impl FleetTimeline {
    pub fn new() -> FleetTimeline {
        FleetTimeline::default()
    }

    /// Record the fleet reaching `size` at `at_s`. Consecutive records at
    /// the same instant collapse to the last one.
    pub fn record(&mut self, at_s: f64, size: u32) {
        if let Some(last) = self.steps.last_mut() {
            debug_assert!(at_s >= last.0, "fleet records must be time-ordered");
            if last.0 == at_s {
                last.1 = size;
                return;
            }
        }
        self.steps.push((at_s, size));
    }

    pub fn steps(&self) -> &[(f64, u32)] {
        &self.steps
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Largest fleet ever held.
    pub fn peak(&self) -> u32 {
        self.steps.iter().map(|&(_, s)| s).max().unwrap_or(0)
    }

    /// Time-weighted mean fleet size over `[0, horizon_s]`.
    pub fn mean_size(&self, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            return 0.0;
        }
        let mut area = 0.0;
        for (i, &(t, s)) in self.steps.iter().enumerate() {
            let next = self
                .steps
                .get(i + 1)
                .map(|&(t2, _)| t2)
                .unwrap_or(horizon_s)
                .min(horizon_s);
            if next > t {
                area += (next - t) * s as f64;
            }
        }
        area / horizon_s
    }

    /// The distinct fleet sizes visited, in order (adjacent duplicates
    /// collapsed) — the signature cross-engine agreement tests compare.
    pub fn size_sequence(&self) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &(_, s) in &self.steps {
            if out.last() != Some(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Render as an ASCII step chart: one row per fleet size (top = peak),
    /// `#` while the fleet held at least that many instances. `width`
    /// columns span `[0, horizon_s]`. Prints next to a Gantt chart of the
    /// same width, this shows capacity tracking load.
    pub fn render_ascii(&self, width: usize, horizon_s: f64) -> String {
        let peak = self.peak();
        if peak == 0 || width == 0 || horizon_s <= 0.0 {
            return String::from("(empty fleet timeline)\n");
        }
        let mut out = String::new();
        for level in (1..=peak).rev() {
            let mut row = vec![b' '; width];
            for (i, &(t, s)) in self.steps.iter().enumerate() {
                if s < level {
                    continue;
                }
                let next = self
                    .steps
                    .get(i + 1)
                    .map(|&(t2, _)| t2)
                    .unwrap_or(horizon_s)
                    .min(horizon_s);
                let lo = ((t / horizon_s) * width as f64).floor() as usize;
                let hi = (((next / horizon_s) * width as f64).ceil() as usize).min(width);
                for cell in &mut row[lo.min(width.saturating_sub(1))..hi] {
                    *cell = b'#';
                }
            }
            out.push_str(&format!(
                "n={level:03} |{}|\n",
                String::from_utf8_lossy(&row)
            ));
        }
        out.push_str(&format!(
            "       0s{:>w$}\n",
            format!("{horizon_s:.0}s"),
            w = width - 1
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(0, 1, 0.0, 10.0);
        t.push(0, 2, 10.0, 20.0);
        t.push(1, 3, 0.0, 5.0);
        t
    }

    #[test]
    fn accounting() {
        let t = sample();
        assert_eq!(t.n_workers(), 2);
        assert_eq!(t.horizon_s(), 20.0);
        assert_eq!(t.worker_busy_s(0), 20.0);
        assert_eq!(t.worker_busy_s(1), 5.0);
        // (20 + 5) / (20 * 2) = 0.625
        assert!((t.utilization(2) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn render_shows_imbalance() {
        let t = sample();
        let art = t.render_ascii(20);
        let lines: Vec<&str> = art.lines().collect();
        assert!(lines[0].starts_with("w000"));
        // Worker 0 busy across the whole span; worker 1 only the first quarter.
        let w0 = lines[0].matches('#').count();
        let w1 = lines[1].matches('#').count();
        assert_eq!(w0, 20);
        assert!((4..=6).contains(&w1), "w1 {w1}");
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.utilization(4), 0.0);
        assert_eq!(t.render_ascii(10), "(empty timeline)\n");
    }

    fn fleet_sample() -> FleetTimeline {
        let mut f = FleetTimeline::new();
        f.record(0.0, 2);
        f.record(10.0, 4);
        f.record(30.0, 1);
        f
    }

    #[test]
    fn fleet_step_function() {
        let f = fleet_sample();
        assert_eq!(f.peak(), 4);
        // (10*2 + 20*4 + 10*1) / 40 = 110/40
        assert!((f.mean_size(40.0) - 2.75).abs() < 1e-12);
        assert_eq!(f.size_sequence(), vec![2, 4, 1]);
    }

    #[test]
    fn fleet_same_instant_collapses() {
        let mut f = FleetTimeline::new();
        f.record(5.0, 3);
        f.record(5.0, 4);
        assert_eq!(f.steps(), &[(5.0, 4)]);
    }

    #[test]
    fn fleet_render_rows_per_level() {
        let f = fleet_sample();
        let art = f.render_ascii(40, 40.0);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 5, "4 levels + axis");
        assert!(lines[0].starts_with("n=004"));
        // Level 1 is held for the whole horizon.
        let bottom = lines[3];
        assert_eq!(bottom.matches('#').count(), 40);
        // Level 4 only during [10, 30).
        let top = lines[0].matches('#').count();
        assert!((18..=22).contains(&top), "top row {top}");
        // Empty cases degrade gracefully.
        assert_eq!(
            FleetTimeline::new().render_ascii(10, 10.0),
            "(empty fleet timeline)\n"
        );
    }
}
