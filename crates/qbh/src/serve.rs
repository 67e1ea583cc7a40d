//! Serving adapter: [`QbhSystem`] as a [`hum_server::QbhService`].
//!
//! This is the other half of the server's dependency inversion: `hum-server`
//! defines the small [`QbhService`] surface it can serve, and this module
//! implements it for the assembled system — so `qbh serve` is just
//! `Server::start(system, addr, config)`.
//!
//! The adapter adds nothing of its own: queries go through
//! [`QbhSystem::try_query_request_with`] (the same path in-process callers
//! use, with the worker's reusable scratch), so served results are
//! bit-identical to local ones; mutations go through
//! [`QbhSystem::try_insert_melody`] / [`QbhSystem::try_remove`]; the three
//! maintenance phases are [`QbhSystem::plan_maintenance`],
//! [`MaintenancePlan::build`] and [`QbhSystem::commit_maintenance`] — the
//! same three [`QbhSystem::flush`] and [`QbhSystem::compact`] run back to
//! back.

use hum_core::engine::{EngineError, QueryBudget, QueryRequest, QueryScratch, RequestKind};
use hum_server::{QbhService, ServiceError, ServiceMatch, ServiceOutcome};

use crate::storage::StorageError;
use crate::system::{BuiltMaintenance, MaintenancePlan, QbhSystem};

fn storage_error(e: StorageError) -> ServiceError {
    ServiceError::Storage(e.to_string())
}

impl QbhService for QbhSystem {
    type Plan = MaintenancePlan;
    type Built = BuiltMaintenance;

    fn query(
        &self,
        kind: RequestKind,
        pitch_series: &[f64],
        band: Option<usize>,
        budget: QueryBudget,
        trace: bool,
        scratch: &mut QueryScratch,
    ) -> Result<ServiceOutcome, EngineError> {
        let request = match kind {
            RequestKind::Knn { k } => QueryRequest::knn(k),
            RequestKind::Range { radius } => QueryRequest::range(radius),
        };
        let request = request
            .with_band(band.unwrap_or_else(|| self.band()))
            .with_trace(trace)
            .with_budget(budget);
        let (results, trace) = self.try_query_request_with(pitch_series, request, scratch)?;
        let matches = results
            .matches
            .into_iter()
            .map(|m| ServiceMatch {
                id: m.id,
                song: m.song,
                phrase: m.phrase,
                distance: m.distance,
            })
            .collect();
        Ok(ServiceOutcome { matches, stats: results.stats, trace })
    }

    fn insert(
        &mut self,
        id: u64,
        song: usize,
        phrase: usize,
        pitch_series: &[f64],
    ) -> Result<(), ServiceError> {
        Ok(self.try_insert_melody(id, song, phrase, pitch_series)?)
    }

    fn remove(&mut self, id: u64) -> Result<bool, ServiceError> {
        self.try_remove(id).map_err(storage_error)
    }

    fn needs_maintenance(&self) -> bool {
        self.needs_flush() || self.needs_compaction()
    }

    fn plan(&self) -> Result<Option<MaintenancePlan>, ServiceError> {
        self.plan_maintenance().map_err(storage_error)
    }

    fn build(plan: MaintenancePlan) -> Result<BuiltMaintenance, ServiceError> {
        plan.build().map_err(storage_error)
    }

    fn commit(&mut self, built: BuiltMaintenance) -> Result<Box<dyn Send>, ServiceError> {
        let retired = self.commit_maintenance(built).map_err(storage_error)?;
        Ok(Box::new(retired))
    }

    fn len(&self) -> usize {
        QbhSystem::len(self)
    }
}
