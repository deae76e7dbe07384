"""Simulated cloud infrastructure services (IaaS substrate).

Models the pieces of Amazon Web Services and Microsoft Windows Azure that
the paper's Classic Cloud framework is built on:

* :mod:`repro.cloud.instance_types` — the EC2 (Table 1) and Azure (Table 2)
  instance catalogs with a calibrated machine model per type.
* :mod:`repro.cloud.storage` — S3 / Azure Blob storage with request latency,
  transfer bandwidth, eventual consistency and per-request/per-GB metering.
* :mod:`repro.cloud.queue` — SQS / Azure Queue with visibility timeouts,
  at-least-once unordered delivery and eventual consistency.
* :mod:`repro.cloud.compute` — VM provisioning with hourly billing and
  per-instance performance jitter.
* :mod:`repro.cloud.billing` — cost aggregation (compute, amortized,
  storage, queue, transfer).
* :mod:`repro.cloud.failures` — fault-injection plans for workers, messages
  and storage.
* :mod:`repro.cloud.spot` — the seeded spot-price market and bid
  strategies behind :mod:`repro.autoscale`.
"""

from repro.cloud.billing import (
    PER_SECOND_MINIMUM_S,
    BillingReport,
    CostMeter,
    InstanceUsage,
)
from repro.cloud.compute import CloudProvider, VmInstance
from repro.cloud.deployment import (
    AZURE_DEPLOYMENT,
    EC2_DEPLOYMENT,
    DeploymentModel,
    DeploymentStep,
    preparation_cost,
)
from repro.cloud.failures import FaultPlan, TaskFaults
from repro.cloud.instance_types import (
    AZURE_INSTANCE_TYPES,
    EC2_INSTANCE_TYPES,
    InstanceType,
    MachineModel,
    get_instance_type,
)
from repro.cloud.pricing import AWS_PRICES, AZURE_PRICES, PriceBook
from repro.cloud.queue import Message, MessageQueue, QueueStats
from repro.cloud.spot import BidStrategy, SpotMarketModel, SpotPriceTrace
from repro.cloud.storage import (
    BlobNotFound,
    BlobObject,
    BlobStore,
    StorageUnavailable,
)

__all__ = [
    "AWS_PRICES",
    "AZURE_DEPLOYMENT",
    "AZURE_INSTANCE_TYPES",
    "AZURE_PRICES",
    "BidStrategy",
    "BillingReport",
    "DeploymentModel",
    "DeploymentStep",
    "EC2_DEPLOYMENT",
    "preparation_cost",
    "BlobNotFound",
    "BlobObject",
    "BlobStore",
    "CloudProvider",
    "CostMeter",
    "EC2_INSTANCE_TYPES",
    "FaultPlan",
    "InstanceType",
    "InstanceUsage",
    "MachineModel",
    "Message",
    "MessageQueue",
    "PER_SECOND_MINIMUM_S",
    "PriceBook",
    "QueueStats",
    "SpotMarketModel",
    "SpotPriceTrace",
    "StorageUnavailable",
    "TaskFaults",
    "VmInstance",
    "get_instance_type",
]
