// Umbrella public header for the jdvs library.
//
// jdvs reproduces "The Design and Implementation of a Real Time Visual
// Search System on JD E-commerce Platform" (MIDDLEWARE 2018): a real-time
// image-retrieval system with a forward index + IVF inverted index core,
// lock-free real-time updates, periodic full indexing, and a 3-level
// distributed search architecture (blender / broker / searcher).
//
// Quick start:
//
//   jdvs::ClusterConfig config;                  // paper-testbed topology
//   jdvs::VisualSearchCluster cluster(config);
//   jdvs::GenerateCatalog({}, cluster.catalog(), cluster.image_store(),
//                         &cluster.features());
//   cluster.BuildAndInstallFullIndexes();
//   cluster.Start();
//   auto response = cluster.Query({product_id, category, /*seed=*/1});
//
#pragma once

#include "cluster/kmeans.h"
#include "cluster/quantizer.h"
#include "common/clock.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/rng.h"
#include "ctrl/controller.h"
#include "ctrl/failure_detector.h"
#include "ctrl/replica_state.h"
#include "embedding/category_detector.h"
#include "embedding/extractor.h"
#include "index/bitmap.h"
#include "index/digest.h"
#include "index/forward_index.h"
#include "index/full_index_builder.h"
#include "index/inverted_index.h"
#include "index/ivf_index.h"
#include "index/realtime_indexer.h"
#include "index/snapshot.h"
#include "kvstore/kvstore.h"
#include "hashing/binary_hash.h"
#include "imi/multi_index.h"
#include "lsh/lsh_index.h"
#include "metrics/cdf.h"
#include "metrics/latency_recorder.h"
#include "metrics/qps_counter.h"
#include "metrics/time_series.h"
#include "mq/message.h"
#include "mq/message_log.h"
#include "mq/topic_queue.h"
#include "net/latency_model.h"
#include "net/load_balancer.h"
#include "net/node.h"
#include "net/partitioner.h"
#include "obs/counter.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/gauge.h"
#include "obs/introspection.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "pq/codebook.h"
#include "pq/pq_snapshot.h"
#include "qos/admission.h"
#include "qos/deadline.h"
#include "qos/load_controller.h"
#include "search/blender.h"
#include "search/broker.h"
#include "search/cluster_builder.h"
#include "search/query_cache.h"
#include "search/ranking.h"
#include "search/reranker.h"
#include "search/searcher.h"
#include "search/types.h"
#include "store/catalog.h"
#include "store/feature_db.h"
#include "store/image_store.h"
#include "tier/mmap_file.h"
#include "tier/tiered_snapshot.h"
#include "tier/tiered_store.h"
#include "vecmath/distance.h"
#include "vecmath/topk.h"
#include "vecmath/vector.h"
#include "vecmath/vector_set.h"
#include "workload/catalog_gen.h"
#include "workload/day_trace.h"
#include "workload/trace_io.h"
#include "workload/query_client.h"
