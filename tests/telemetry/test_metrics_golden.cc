/**
 * @file
 * Golden tests for the registry renderers (DESIGN.md §11): the
 * Prometheus exposition and the grouped JSON of one fixed registry
 * state, byte for byte. The expected text was rendered by the
 * ostringstream renderer that preceded the prefix-built one, so a
 * renderer change that moves one byte of /metricsz or /statsz fails
 * here.
 */

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"

namespace
{

using rfl::telemetry::Histogram;
using rfl::telemetry::Registry;

/** A registry exercising every branch of both renderers. */
void
populateGoldenRegistry(Registry &reg)
{
    reg.counter("rfl_queue_submitted_total", "campaigns submitted")
        .inc(42);
    reg.counter("rfl_cache_hits_total", "cache hits", {{"tier", "memory"}})
        .inc(7);
    reg.counter("rfl_cache_hits_total", "cache hits", {{"tier", "spill"}})
        .mirror(18446744073709551615ull);
    reg.counter("rfl_nohelp_total", "");
    reg.counter("rfl_escape_total", "label escaping",
                {{"path", "C:\\dir \"q\"\nline"}, {"b", "x"}})
        .inc();
    reg.gauge("rfl_queue_depth", "queued campaigns").set(3.0);
    reg.gauge("rfl_model_nan", "not a number")
        .set(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("rfl_model_inf", "infinities", {{"sign", "pos"}})
        .set(std::numeric_limits<double>::infinity());
    reg.gauge("rfl_model_inf", "infinities", {{"sign", "neg"}})
        .set(-std::numeric_limits<double>::infinity());
    reg.gauge("rfl_ratio", "a fraction").set(0.1);
    reg.gauge("rfl_tiny", "").set(-1.5e-300);

    Histogram &plain = reg.histogram("rfl_job_seconds", "job time");
    for (double v : {3e-6, 0.02, 0.02, 100.0})
        plain.observe(v);
    reg.histogram("rfl_http_request_seconds", "by endpoint",
                  {{"endpoint", "/metricsz"}})
        .observe(1e-4);
    reg.histogram("rfl_http_request_seconds", "by endpoint",
                  {{"endpoint", "/v1/campaigns/{id}"}});
    Histogram &sized =
        reg.histogram("rfl_size_bytes", "sizes", {{"kind", "a\"b\\c\nd"}},
                      {0.5, 1.0, 2.5, 1e9});
    for (double v : {0.5, 0.7, 3.0})
        sized.observe(v);
}

const char *const kGoldenPrometheus = R"golden(# HELP rfl_cache_hits_total cache hits
# TYPE rfl_cache_hits_total counter
rfl_cache_hits_total{tier="memory"} 7
rfl_cache_hits_total{tier="spill"} 18446744073709551615
# HELP rfl_escape_total label escaping
# TYPE rfl_escape_total counter
rfl_escape_total{path="C:\\dir \"q\"\nline",b="x"} 1
# HELP rfl_http_request_seconds by endpoint
# TYPE rfl_http_request_seconds histogram
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="9.9999999999999995e-07"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="2.5000000000000002e-06"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="5.0000000000000004e-06"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="1.0000000000000001e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="2.5000000000000001e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="5.0000000000000002e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.0001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.00025000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.00050000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.0025000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.0050000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.01"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.025000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.050000000000000003"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.10000000000000001"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.25"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="0.5"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="1"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="2.5"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="5"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="10"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="30"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="60"} 1
rfl_http_request_seconds_bucket{endpoint="/metricsz",le="+Inf"} 1
rfl_http_request_seconds_sum{endpoint="/metricsz"} 0.0001
rfl_http_request_seconds_count{endpoint="/metricsz"} 1
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="9.9999999999999995e-07"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="2.5000000000000002e-06"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="5.0000000000000004e-06"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="1.0000000000000001e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="2.5000000000000001e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="5.0000000000000002e-05"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.0001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.00025000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.00050000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.0025000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.0050000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.01"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.025000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.050000000000000003"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.10000000000000001"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.25"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="0.5"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="1"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="2.5"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="5"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="10"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="30"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="60"} 0
rfl_http_request_seconds_bucket{endpoint="/v1/campaigns/{id}",le="+Inf"} 0
rfl_http_request_seconds_sum{endpoint="/v1/campaigns/{id}"} 0
rfl_http_request_seconds_count{endpoint="/v1/campaigns/{id}"} 0
# HELP rfl_job_seconds job time
# TYPE rfl_job_seconds histogram
rfl_job_seconds_bucket{le="9.9999999999999995e-07"} 0
rfl_job_seconds_bucket{le="2.5000000000000002e-06"} 0
rfl_job_seconds_bucket{le="5.0000000000000004e-06"} 1
rfl_job_seconds_bucket{le="1.0000000000000001e-05"} 1
rfl_job_seconds_bucket{le="2.5000000000000001e-05"} 1
rfl_job_seconds_bucket{le="5.0000000000000002e-05"} 1
rfl_job_seconds_bucket{le="0.0001"} 1
rfl_job_seconds_bucket{le="0.00025000000000000001"} 1
rfl_job_seconds_bucket{le="0.00050000000000000001"} 1
rfl_job_seconds_bucket{le="0.001"} 1
rfl_job_seconds_bucket{le="0.0025000000000000001"} 1
rfl_job_seconds_bucket{le="0.0050000000000000001"} 1
rfl_job_seconds_bucket{le="0.01"} 1
rfl_job_seconds_bucket{le="0.025000000000000001"} 3
rfl_job_seconds_bucket{le="0.050000000000000003"} 3
rfl_job_seconds_bucket{le="0.10000000000000001"} 3
rfl_job_seconds_bucket{le="0.25"} 3
rfl_job_seconds_bucket{le="0.5"} 3
rfl_job_seconds_bucket{le="1"} 3
rfl_job_seconds_bucket{le="2.5"} 3
rfl_job_seconds_bucket{le="5"} 3
rfl_job_seconds_bucket{le="10"} 3
rfl_job_seconds_bucket{le="30"} 3
rfl_job_seconds_bucket{le="60"} 3
rfl_job_seconds_bucket{le="+Inf"} 4
rfl_job_seconds_sum 100.040003
rfl_job_seconds_count 4
# HELP rfl_model_inf infinities
# TYPE rfl_model_inf gauge
rfl_model_inf{sign="neg"} -Inf
rfl_model_inf{sign="pos"} +Inf
# HELP rfl_model_nan not a number
# TYPE rfl_model_nan gauge
rfl_model_nan nan
# TYPE rfl_nohelp_total counter
rfl_nohelp_total 0
# HELP rfl_queue_depth queued campaigns
# TYPE rfl_queue_depth gauge
rfl_queue_depth 3
# HELP rfl_queue_submitted_total campaigns submitted
# TYPE rfl_queue_submitted_total counter
rfl_queue_submitted_total 42
# HELP rfl_ratio a fraction
# TYPE rfl_ratio gauge
rfl_ratio 0.10000000000000001
# HELP rfl_size_bytes sizes
# TYPE rfl_size_bytes histogram
rfl_size_bytes_bucket{kind="a\"b\\c\nd",le="0.5"} 1
rfl_size_bytes_bucket{kind="a\"b\\c\nd",le="1"} 2
rfl_size_bytes_bucket{kind="a\"b\\c\nd",le="2.5"} 2
rfl_size_bytes_bucket{kind="a\"b\\c\nd",le="1000000000"} 3
rfl_size_bytes_bucket{kind="a\"b\\c\nd",le="+Inf"} 3
rfl_size_bytes_sum{kind="a\"b\\c\nd"} 4.2000000000000002
rfl_size_bytes_count{kind="a\"b\\c\nd"} 3
# TYPE rfl_tiny gauge
rfl_tiny -1.5000000000000001e-300
)golden";

const char *const kGoldenJson = R"golden({"cache":{"hits{tier=\"memory\"}":7,"hits{tier=\"spill\"}":18446744073709551615},"escape":{"total{path=\"C:\\\\dir \\\"q\\\"\\nline\",b=\"x\"}":1},"http":{"request_seconds{endpoint=\"/metricsz\"}":{"count":1,"sum":0.0001,"p50":0.0001,"p90":0.0001,"p99":0.0001},"request_seconds{endpoint=\"/v1/campaigns/{id}\"}":{"count":0,"sum":0,"p50":0,"p90":0,"p99":0}},"job":{"seconds":{"count":4,"sum":100.040003,"p50":0.017500000000000002,"p90":60,"p99":60}},"model":{"inf{sign=\"neg\"}":null,"inf{sign=\"pos\"}":null,"nan":null},"nohelp":{"total":0},"queue":{"depth":3,"submitted":42},"ratio":{"ratio":0.10000000000000001},"size":{"bytes{kind=\"a\\\"b\\\\c\\nd\"}":{"count":3,"sum":4.2000000000000002,"p50":1,"p90":1000000000,"p99":1000000000}},"tiny":{"tiny":-1.5000000000000001e-300}})golden";

TEST(RegistryGolden, PrometheusTextIsByteIdentical)
{
    Registry reg;
    populateGoldenRegistry(reg);
    EXPECT_EQ(reg.renderPrometheus(), kGoldenPrometheus);
    // Rendering reads, never edits: a second render is the same text.
    EXPECT_EQ(reg.renderPrometheus(), kGoldenPrometheus);
}

TEST(RegistryGolden, GroupedJsonIsByteIdentical)
{
    Registry reg;
    populateGoldenRegistry(reg);
    EXPECT_EQ(reg.renderJsonGrouped(), kGoldenJson);
}

TEST(RegistryGolden, LateRegistrationLandsInFamilyOrder)
{
    // A series registered after a render appears in the next one at
    // its sorted place, under its family's single header.
    Registry reg;
    populateGoldenRegistry(reg);
    (void)reg.renderPrometheus();
    reg.counter("rfl_cache_hits_total", "cache hits", {{"tier", "disk"}})
        .inc(5);
    const std::string text = reg.renderPrometheus();
    const std::string expected =
        "# HELP rfl_cache_hits_total cache hits\n"
        "# TYPE rfl_cache_hits_total counter\n"
        "rfl_cache_hits_total{tier=\"disk\"} 5\n"
        "rfl_cache_hits_total{tier=\"memory\"} 7\n";
    EXPECT_EQ(text.substr(0, expected.size()), expected);
}

} // namespace
